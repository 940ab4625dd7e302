"""Random Lagrangian frames and volume-comparison experiments.

The n-form Theta_0 = Re(e^{-i beta_0} Omega) is bounded by the volume
element on non-degenerate Lagrangian frames, with equality exactly at
angle beta_0.  This module draws the random Lagrangian frames on which
that inequality and the determinant identity behind it are checked (the
arithmetic is core.frame_quantities, re-exported here), rotates frames to
a given angle, and runs desk-scale volume experiments: a minimal patch is
deformed by compactly supported Hamiltonian flows (which preserve the
Lagrangian class and fix the boundary) and its volume compared against
each competitor.

The deformation engine integrates the parameter-label transport system

    dF/dtau (u) = -J grad_g h(u),      h(u) = amplitude * bump(|u - c| / r)

with RK4 in time.  Spatially the evolving frames are differentiated on
a polar grid centered at the bump: the support boundary |u - c| = r is
then grid-aligned, so the limited smoothness of the bump profile there
never crosses a difference stencil.  Radial derivatives use 4th/5th
order stencils (antipodal continuation through the center, one-sided
closure against the exact zero ring); angular derivatives are spectral
(numpy.fft along the last, contiguous axis of the component-major
(2, g_rho, g_theta) state).  The field works in the polar frame itself:
h is radial, so its differential there is (dh/drho, 0), and the frame
rows are the base rows df/drho, df/dtheta (precomputed once per flow)
plus those raw derivatives of the displacement, with no Cartesian chain
rule.  The field writes the 2x2 Gram entries out in real arithmetic.

The deformed patch evaluates the flowed displacement through the
tensor-product not-a-knot bicubic of lagcal.spline on the padded polar
grid.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import numpy.fft  # NumPy loads it on first use; load it with this module instead

from .core import (
    DegenerateInput,
    GeometryError,
    STACK_BLOCK,
    Signature,
    circ_spread,
    frame_quantities,  # re-exported: the calibration arithmetic on frame stacks
    pseudo_unitary_sample,
    random_invertible,
)
from .immersion import (
    ImmersionPatch,
    _central_frames,
    fd_dvol_on_nodes,
    interior_samples,
    lagrangian_angle_at,
    lagrangian_defect,
    midpoint_grid,
    tangent_frame,
)
from .spline import NotAKnotBicubic

AMBIENT_BOUND = 1e6
FLOW_GRID = (128, 128)
# volume_compare checks that the base angle is constant at this many points of the box diagonal
ANGLE_PROBES = 64


class FlowDivergence(GeometryError):
    pass


class FlowDegeneracy(GeometryError):
    """The induced metric degenerated somewhere during the flow."""


class NotMinimalError(DegenerateInput):
    """The base patch of a volume comparison has no constant Lagrangian angle."""


# --- frames -------------------------------------------------------------------

def random_lagrangian_frames(sig: Signature, count: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of frames spanning non-degenerate Lagrangian n-planes.

    Random real invertible matrices (core.random_invertible) act on the
    canonical real basis; a random pseudo-unitary map then mixes tangent
    and normal directions while preserving the symplectic form, hence the
    Lagrangian property.
    """
    real = random_invertible(rng, count, sig.n)
    # the frames overwrite the pseudo-unitary factors block by block
    frames = pseudo_unitary_sample(rng, sig, count)
    for start in range(0, count, STACK_BLOCK):
        block = slice(start, start + STACK_BLOCK)
        frames[block] = real[block].astype(complex) @ frames[block].swapaxes(-1, -2)
    return frames


def rotate_frame_to_angle(frames, beta0, sig: Signature) -> np.ndarray:
    """Scalar-unitary rotation of frames (..., n, n) so their angles become beta0.

    beta0 broadcasts over the stack.  Multiplying every vector by
    e^{i theta / n} preserves the Lagrangian plane property and the volume
    element while turning Omega by e^{i theta}.
    """
    frames = np.asarray(frames, dtype=complex)
    beta = np.angle(np.linalg.det(frames))
    return frames * np.exp(1j * (beta0 - beta) / sig.n)[..., None, None]


# --- Hamiltonian perturbations --------------------------------------------------

def bump_profile_d1(t):
    """Derivative of the radial bump profile (1 - t^2)^3 on t < 1, zero outside."""
    t = np.asarray(t, dtype=float)
    inside = np.clip(1.0 - t * t, 0.0, None)
    return -6.0 * t * inside ** 2


@dataclass(frozen=True)
class PerturbationSpec:
    """Compactly supported Hamiltonian deformation parameters.

    The bump h(u) = amplitude * (1 - |u - center|^2 / radius^2)^3 acts
    through the parameter labels; steps and step_size set the RK4 time
    grid (total flow time steps * step_size).
    """

    center: np.ndarray
    radius: float
    amplitude: float
    steps: int = 100
    step_size: float = 2e-4

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise DegenerateInput("bump radius must be positive")
        if self.steps < 0:
            raise DegenerateInput("step count must be non-negative")


def _fd_weights(offsets: np.ndarray) -> np.ndarray:
    """First-derivative weights exact on polynomials of degree len(offsets)-1."""
    m = len(offsets)
    v = np.vander(offsets, m, increasing=True).T
    rhs = np.zeros(m)
    rhs[1] = 1.0
    return np.linalg.solve(v, rhs)


class _PolarFlow:
    """Method-of-lines state for one compactly supported Hamiltonian flow."""

    def __init__(self, patch: ImmersionPatch, spec: PerturbationSpec,
                 grid: tuple[int, int] = FLOW_GRID):
        if patch.n != 2:
            raise GeometryError("the deformation engine supports 2-parameter patches")
        self.patch = patch
        self.spec = spec
        margin = 4.0 * patch.steps(1)
        lo, hi = patch.lo + margin, patch.hi - margin
        c, r = spec.center, spec.radius
        if np.any(c - r < lo) or np.any(c + r > hi):
            raise DegenerateInput(
                "bump support must stay strictly inside the patch domain interior")

        g_rho, g_theta = grid
        if g_theta % 2:
            raise DegenerateInput("angular grid size must be even")
        self.g_rho, self.g_theta = g_rho, g_theta
        self.d_rho = r / g_rho
        self.rho = (np.arange(g_rho) + 0.5) * self.d_rho
        self.theta = np.arange(g_theta) * (2.0 * np.pi / g_theta)
        cos_t, sin_t = np.cos(self.theta), np.sin(self.theta)
        e_rho = np.stack([cos_t, sin_t], axis=-1)                  # (g_theta, 2)
        self.nodes = c + self.rho[:, None, None] * e_rho[None]     # (g_rho, g_theta, 2)

        flat = self.nodes.reshape(-1, 2)
        # the state is component-major, (2, g_rho, g_theta), so the angular
        # axis the FFT runs along is last and contiguous
        self.base = np.ascontiguousarray(
            np.moveaxis(np.asarray(patch.f(flat)).reshape(g_rho, g_theta, 2), -1, 0))
        # base frame rows in the polar frame, df/drho and df/dtheta, one
        # contiguous (2, g_rho, g_theta) array each: _field reads them on
        # every evaluation
        frames = _central_frames(patch, flat, patch.steps(1)).reshape(g_rho, g_theta, 2, 2)
        x1, x2 = np.ascontiguousarray(frames.transpose(2, 3, 0, 1))
        self.base_xr = cos_t * x1 + sin_t * x2
        self.base_xt = self.rho[:, None] * (cos_t * x2 - sin_t * x1)
        # h is radial, so its differential in (rho, theta) is (dh/drho, 0)
        self.slope = (spec.amplitude * bump_profile_d1(self.rho / r) / r)[:, None]

        # spectral angular derivative factors, shaped (g_theta,)
        self.ik = 1j * np.fft.fftfreq(g_theta, d=1.0 / g_theta)
        # one-sided radial closures against the exact zero ring at rho = r
        off_last = np.array([-4.0, -3.0, -2.0, -1.0, 0.0, 0.5])
        off_prev = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 1.5])
        self.w_last = _fd_weights(off_last) / self.d_rho
        self.w_prev = _fd_weights(off_prev) / self.d_rho

    def _d_rho_of(self, d: np.ndarray) -> np.ndarray:
        g = self.g_rho
        ghost = np.roll(d[:, :2], self.g_theta // 2, axis=2)[:, ::-1]  # antipodal continuation
        ext = np.concatenate([ghost, d], axis=1)                   # rows: -2, -1, 0 .. g-1
        out = np.empty_like(d)
        # central 5-point on rows 0 .. g-3 (extended indices shift by 2)
        out[:, :g - 2] = ((ext[:, :g - 2] - ext[:, 4:g + 2])
                          + 8.0 * (ext[:, 3:g + 1] - ext[:, 1:g - 1])) * (1.0 / (12.0 * self.d_rho))
        # one-sided closures on rows g-2, g-1 over rows g-5 .. g-1; their
        # 6th node is the ring value, identically zero
        window = d[:, g - 5:]
        out[:, g - 2] = np.einsum("j,cjt->ct", self.w_prev[:5], window)
        out[:, g - 1] = np.einsum("j,cjt->ct", self.w_last[:5], window)
        return out

    def _field(self, d: np.ndarray) -> np.ndarray:
        # the frame rows y_r = df/drho and y_t = df/dtheta, built in the
        # derivatives' own arrays, which the gradient then overwrites
        y_r = self._d_rho_of(d)
        y_r += self.base_xr
        y_t = np.fft.fft(d)
        y_t *= self.ik
        np.fft.ifft(y_t, out=y_t)
        y_t += self.base_xt

        # Gram entries g_jk = Re sum_l eps_l y_j,l conj(y_k,l), written out
        # in real arithmetic per component l
        yrr, yri, ytr, yti = y_r.real, y_r.imag, y_t.real, y_t.imag
        a_rr = yrr * yrr + yri * yri
        a_tt = ytr * ytr + yti * yti
        a_rt = yrr * ytr + yri * yti
        e0, e1 = self.patch.sig.eps
        g_rr = e0 * a_rr[0] + e1 * a_rr[1]
        g_tt = e0 * a_tt[0] + e1 * a_tt[1]
        g_rt = e0 * a_rt[0] + e1 * a_rt[1]
        det = g_rr * g_tt - g_rt * g_rt
        # rescaling either row leaves |det| / (|y_r|^2 |y_t|^2) unchanged, so
        # the factor rho in y_t does not weaken the predicate near the center
        scale = (a_rr[0] + a_rr[1]) * (a_tt[0] + a_tt[1])
        if np.any(np.abs(det) < 1e-10 * np.maximum(scale, 1e-300)):
            raise FlowDegeneracy("induced metric degenerated during the flow")
        # -J grad h = -i (dh/drho) (g^rr y_r + g^rt y_t)
        coef = self.slope / det
        y_r *= coef * g_tt
        y_t *= coef * g_rt
        y_r -= y_t
        y_r *= -1j
        return y_r

    def run(self) -> np.ndarray:
        d = np.zeros_like(self.base)
        dt = self.spec.step_size
        for _ in range(self.spec.steps):
            k1 = self._field(d)
            k2 = self._field(d + 0.5 * dt * k1)
            k3 = self._field(d + 0.5 * dt * k2)
            k4 = self._field(d + dt * k3)
            d = d + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if np.max(np.abs(self.base + d)) > AMBIENT_BOUND:
                raise FlowDivergence("flow left the configured ambient bound")
        return d


def _padded_polar_grid(flow: _PolarFlow, d: np.ndarray):
    """Nodes and value planes of a flowed displacement d, ready to interpolate.

    rho gains the center and the support ring, where the displacement is
    exactly zero; theta gains three periodic nodes on each side.  The
    planes, on the last axis, are the real parts of both components and
    then their imaginary parts.
    """
    pad = 3
    rho = np.concatenate([[0.0], flow.rho, [flow.spec.radius]])
    theta = np.concatenate([flow.theta[-pad:] - 2.0 * np.pi, flow.theta,
                            flow.theta[:pad] + 2.0 * np.pi])
    planes = np.pad(np.concatenate([d.real, d.imag]), ((0, 0), (1, 1), (0, 0)))
    planes = np.pad(planes, ((0, 0), (0, 0), (pad, pad)), mode="wrap")
    return rho, theta, np.moveaxis(planes, 0, -1)


def hamiltonian_perturb(patch: ImmersionPatch, spec: PerturbationSpec,
                        grid: tuple[int, int] = FLOW_GRID) -> ImmersionPatch:
    """Deform a patch along the compactly supported Hamiltonian field.

    The returned patch evaluates exactly as the input outside the bump
    support; inside, the flowed displacement is interpolated from the
    polar solution grid (not-a-knot bicubic, with the exact zero ring and
    center values pinned).  Jets are finite differences of the evaluation map, and
    the new patch carries no ``meta``: the input's chart and angle law are not its own.
    """
    if spec.steps == 0 or spec.amplitude == 0.0:
        return patch

    flow = _PolarFlow(patch, spec, grid)
    displacement = NotAKnotBicubic(*_padded_polar_grid(flow, flow.run()))
    center, radius = spec.center, spec.radius
    base_f = patch.f

    def f(u):
        u = np.asarray(u, dtype=float)
        out = np.array(base_f(u), dtype=complex, copy=True)
        v = u - center
        rho = np.hypot(v[..., 0], v[..., 1])
        inside = rho < radius
        if not np.any(inside):
            return out
        theta = np.mod(np.arctan2(v[..., 1], v[..., 0]), 2.0 * np.pi)
        # a 0-d mask indexes a single point as a stack of one
        planes = displacement(rho[inside], theta[inside])
        out[inside] += planes[:, :2] + 1j * planes[:, 2:]
        return out

    return ImmersionPatch(sig=patch.sig, domain=patch.domain, f=f)


# --- volume comparison -----------------------------------------------------------

@dataclass(frozen=True)
class PerturbationResult:
    index: int
    spec: PerturbationSpec
    status: str                 # "ok" | "degenerate" | "diverged"
    volume: float | None
    defect_max: float | None
    degenerate_points: int


@dataclass(frozen=True)
class VolumeCompareReport:
    base_volume: float
    results: tuple

    @property
    def degenerate_count(self) -> int:
        return sum(1 for r in self.results if r.status != "ok")

    def min_slack(self) -> float:
        slacks = [r.volume - self.base_volume for r in self.results if r.status == "ok"]
        if not slacks:
            raise DegenerateInput("no non-degenerate perturbation runs")
        return float(min(slacks))


def _sampled_defect(patch: ImmersionPatch, count: int, rng: np.random.Generator) -> float:
    return float(np.max(lagrangian_defect(patch, interior_samples(patch, count, rng))))


def volume_compare(base: ImmersionPatch, specs, grid, seed: int = 0,
                   flow_grid: tuple[int, int] = FLOW_GRID) -> VolumeCompareReport:
    """Compare the base volume against Hamiltonian competitors on one grid.

    Degenerate quadrature points (volume element under the scale-aware
    threshold) mark the run "degenerate" rather than failing it; the
    report keeps per-run counts so callers can demand a quorum.  Competitors
    run on min(CPUs this process may run on, competitors) threads, each with
    its own seeded generator, and results keep the competitor order, so the
    report does not depend on the thread count.
    """
    nodes, cell = midpoint_grid(base, grid)
    base_dv, base_flags = fd_dvol_on_nodes(base, nodes)
    if np.any(base_flags):
        raise DegenerateInput("base patch is degenerate on the quadrature grid")
    base_volume = float(np.sum(base_dv) * cell)
    # probe the midpoints of ANGLE_PROBES cells on the box diagonal, whatever the grid,
    # so that every axis runs through its whole range
    diagonal = base.lo + base.widths / ANGLE_PROBES * (np.arange(ANGLE_PROBES)[:, None] + 0.5)
    betas = [lagrangian_angle_at(base, u, frame)
             for u, frame in zip(diagonal, tangent_frame(base, diagonal))]
    try:
        spread = circ_spread(betas)
    except DegenerateInput as exc:  # e.g. evenly spread angles: far from constant
        raise NotMinimalError(f"base patch is not minimal: {exc}") from exc
    if spread > 1e-6:
        raise NotMinimalError(f"base patch is not minimal: angle spread {spread:.3e}")

    seeds = np.random.SeedSequence(seed).spawn(len(specs))

    def run_one(args):
        index, spec = args
        rng = np.random.default_rng(seeds[index])
        try:
            perturbed = hamiltonian_perturb(base, spec, grid=flow_grid)
        except (FlowDegeneracy, FlowDivergence) as exc:
            status = "degenerate" if isinstance(exc, FlowDegeneracy) else "diverged"
            return PerturbationResult(index=index, spec=spec, status=status,
                                      volume=None, defect_max=None, degenerate_points=0)
        dv, flags = fd_dvol_on_nodes(perturbed, nodes)
        volume = float(np.sum(dv) * cell)
        defect_max = _sampled_defect(perturbed, 25, rng)
        bad = int(np.sum(flags))
        status = "ok" if bad == 0 else "degenerate"
        return PerturbationResult(index=index, spec=spec, status=status,
                                  volume=volume, defect_max=defect_max,
                                  degenerate_points=bad)

    jobs = list(enumerate(specs))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max_workers=max(1, min(cpus or 1, len(jobs)))) as pool:
        results = list(pool.map(run_one, jobs))  # in job order
    return VolumeCompareReport(base_volume=base_volume, results=tuple(results))


def random_perturbations(patch: ImmersionPatch, count: int, seed: int) -> list[PerturbationSpec]:
    """Seeded batch of admissible bump specs inside the patch domain.

    Amplitudes are uniform in [0.02, 0.2]; steps and step size keep the
    PerturbationSpec defaults.  Radii stay near the allowed maximum: the
    deformation field scales like 1 / radius^2, so small bumps at fixed
    amplitude push the flow into an under-resolved regime.
    """
    rng = np.random.default_rng(seed)
    lo, widths = patch.lo, patch.widths
    specs = []
    for _ in range(count):
        center = lo + rng.uniform(0.42, 0.58, patch.n) * widths
        slack = np.min(np.minimum(center - lo, lo + widths - center) - 0.05 * widths)
        radius = float(rng.uniform(0.8, 0.97) * slack)
        amplitude = float(rng.uniform(0.02, 0.2))
        specs.append(PerturbationSpec(center=center, radius=radius, amplitude=amplitude))
    return specs
