"""Calibration checks and volume-comparison experiments.

The n-form Theta_0 = Re(e^{-i beta_0} Omega) is bounded by the volume
element on non-degenerate Lagrangian frames, with equality exactly at
angle beta_0.  This module samples random Lagrangian frames to test the
inequality and the determinant identity behind it, and runs desk-scale
volume experiments: a minimal patch is deformed by compactly supported
Hamiltonian flows (which preserve the Lagrangian class and fix the
boundary) and its volume compared against each competitor.

The deformation engine integrates the parameter-label transport system

    dF/dtau (u) = -J grad_g h(u),      h(u) = amplitude * bump(|u - c| / r)

with RK4 in time.  Spatially the evolving frames are differentiated on
a polar grid centered at the bump: the support boundary |u - c| = r is
then grid-aligned, so the limited smoothness of the bump profile there
never crosses a difference stencil.  Radial derivatives use 4th/5th
order stencils (antipodal continuation through the center, one-sided
closure against the exact zero ring); angular derivatives are spectral.
Each flow precomputes the polar factors its field evaluation reuses (the
chain-rule factors cos, sin, sin/rho and cos/rho, the base frame rows and
the gradient of h on the polar nodes); the field writes the 2x2 Gram
entries out in real arithmetic.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft
from scipy.interpolate import RectBivariateSpline

from .core import (
    DegenerateInput,
    GeometryError,
    Signature,
    circ_spread,
    frame_quantities,
    hol_volume,
    pseudo_unitary_sample,
)
from .immersion import (
    ImmersionPatch,
    _central_frames,
    fd_dvol_on_nodes,
    interior_samples,
    lagrangian_angle_at,
    lagrangian_defect,
    midpoint_grid,
)

FRAME_DEFECT_TOL = 1e-9
AMBIENT_BOUND = 1e6
FLOW_GRID = (128, 128)


class NonLagrangianFrame(GeometryError):
    pass


class FlowDivergence(GeometryError):
    pass


class FlowDegeneracy(GeometryError):
    """The induced metric degenerated somewhere during the flow."""


# --- frames -------------------------------------------------------------------

def theta0(frame, beta0: float, sig: Signature) -> float:
    """The calibration form Re(e^{-i beta_0} Omega) on a frame."""
    frame = np.asarray(frame, dtype=complex)
    if frame.shape != (sig.n, sig.n):
        raise DegenerateInput(f"frame shape {frame.shape} does not match n={sig.n}")
    return float((np.exp(-1j * beta0) * hol_volume(frame)).real)


def random_lagrangian_frames(sig: Signature, count: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of frames spanning non-degenerate Lagrangian n-planes.

    Random real invertible matrices (entries uniform in [-1, 1], redrawn
    until |det| > 0.05) act on the canonical real basis; a random
    pseudo-unitary map then mixes tangent and normal directions while
    preserving the symplectic form, hence the Lagrangian property.
    """
    real = rng.uniform(-1.0, 1.0, (count, sig.n, sig.n))
    bad = np.flatnonzero(np.abs(np.linalg.det(real)) <= 0.05)
    for _ in range(100):
        if not bad.size:
            break
        # only the redrawn rows can change, so only they are checked again
        real[bad] = rng.uniform(-1.0, 1.0, (bad.size, sig.n, sig.n))
        bad = bad[np.abs(np.linalg.det(real[bad])) <= 0.05]
    else:
        raise DegenerateInput("failed to draw invertible real frames in 100 attempts")
    u = pseudo_unitary_sample(rng, sig, count)
    return real.astype(complex) @ u.swapaxes(-1, -2)


def random_lagrangian_frame(sig: Signature, seed) -> np.ndarray:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return random_lagrangian_frames(sig, 1, rng)[0]


@dataclass(frozen=True)
class CalibrationSample:
    frame: np.ndarray
    beta0: float
    theta0: float
    dvol: float
    beta: float
    slack: float


def _lagrangian_quantities(frame, sig: Signature) -> dict:
    """dvol, beta and absdet_m of one frame; rejects non-Lagrangian and degenerate frames."""
    q = frame_quantities(frame, sig)
    if q["defect"] > FRAME_DEFECT_TOL:
        raise NonLagrangianFrame(f"frame defect {q['defect']:.3e} above {FRAME_DEFECT_TOL:.1e}")
    if q["degenerate"]:
        raise DegenerateInput("frame is numerically degenerate")
    return {key: float(q[key]) for key in ("dvol", "beta", "absdet_m")}


def calib_check(frame, beta0: float, sig: Signature) -> CalibrationSample:
    """Evaluate the calibration inequality data on one Lagrangian frame."""
    frame = np.asarray(frame, dtype=complex)
    q = _lagrangian_quantities(frame, sig)
    th = theta0(frame, beta0, sig)
    return CalibrationSample(
        frame=frame, beta0=float(beta0), theta0=th, dvol=q["dvol"],
        beta=q["beta"], slack=q["dvol"] - th)


def det_identity_check(frame, sig: Signature) -> float:
    """Relative residual of dvol = |det_C M| on a Lagrangian frame."""
    frame = np.asarray(frame, dtype=complex)
    q = _lagrangian_quantities(frame, sig)
    return abs(q["dvol"] - q["absdet_m"]) / q["dvol"]


def rotate_frame_to_angle(frame, beta0: float, sig: Signature) -> np.ndarray:
    """Scalar-unitary rotation of the frame so its angle becomes beta0.

    Multiplying every vector by e^{i theta / n} preserves the Lagrangian
    plane property and the volume element while turning Omega by
    e^{i theta}.
    """
    frame = np.asarray(frame, dtype=complex)
    beta = np.angle(hol_volume(frame))
    return frame * np.exp(1j * (beta0 - beta) / sig.n)


# --- Hamiltonian perturbations --------------------------------------------------

def bump_profile(t):
    """Compactly supported radial profile (1 - t^2)^3 on t < 1, zero outside."""
    t = np.asarray(t, dtype=float)
    inside = np.clip(1.0 - t * t, 0.0, None)
    return inside ** 3


def bump_profile_d1(t):
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
                 grid: tuple[int, int] = FLOW_GRID, ambient_bound: float = AMBIENT_BOUND):
        self.ambient_bound = ambient_bound
        if patch.n != 2:
            raise GeometryError("the deformation engine supports 2-parameter patches")
        self.patch = patch
        self.spec = spec
        margin = 4.0 * patch.steps(1)
        lo = patch.domain[:, 0] + margin
        hi = patch.domain[:, 1] - margin
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
        self.base = np.asarray(patch.f(flat)).reshape(g_rho, g_theta, 2)
        # base frame rows x_k = df/du_k, one contiguous (g_rho, g_theta, 2)
        # array each: _field reads them on every evaluation
        frames = _central_frames(patch, flat, patch.steps(1)).reshape(g_rho, g_theta, 2, 2)
        self.base_x1 = np.ascontiguousarray(frames[..., 0, :])
        self.base_x2 = np.ascontiguousarray(frames[..., 1, :])

        t = self.rho / r
        slope = spec.amplitude * bump_profile_d1(t) / r            # (g_rho,)
        self.dh1 = slope[:, None] * cos_t                          # (g_rho, g_theta)
        self.dh2 = slope[:, None] * sin_t

        # polar chain-rule factors, shaped to broadcast over (g_rho, g_theta, 2):
        #   d/du_x = cos d/drho - (sin / rho) d/dtheta
        #   d/du_y = sin d/drho + (cos / rho) d/dtheta
        inv_rho = (1.0 / self.rho)[:, None]
        self.cos_theta = cos_t[:, None]
        self.sin_theta = sin_t[:, None]
        self.msin_over_rho = (inv_rho * -sin_t)[..., None]
        self.cos_over_rho = (inv_rho * cos_t)[..., None]

        # spectral angular derivative factors, shaped (g_theta, 1)
        self.ik = 1j * np.fft.fftfreq(g_theta, d=1.0 / g_theta)[:, None]
        # one-sided radial closures against the exact zero ring at rho = r
        off_last = np.array([-4.0, -3.0, -2.0, -1.0, 0.0, 0.5])
        off_prev = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 1.5])
        self.w_last = _fd_weights(off_last) / self.d_rho
        self.w_prev = _fd_weights(off_prev) / self.d_rho
        self.degenerate = False

    def _d_rho_of(self, d: np.ndarray) -> np.ndarray:
        g = self.g_rho
        ghost = np.roll(d[:2], self.g_theta // 2, axis=1)[::-1]    # antipodal continuation
        ext = np.concatenate([ghost, d], axis=0)                   # rows: -2, -1, 0 .. g-1
        out = np.empty_like(d)
        # central 5-point on rows 0 .. g-3 (extended indices shift by 2)
        out[:g - 2] = ((ext[:g - 2] - ext[4:g + 2]) + 8.0 * (ext[3:g + 1] - ext[1:g - 1])) \
            * (1.0 / (12.0 * self.d_rho))
        # one-sided closures on rows g-2, g-1 over rows g-5 .. g-1; their
        # 6th node is the ring value, identically zero
        window = d[g - 5:]
        out[g - 2] = np.tensordot(self.w_prev[:5], window, axes=1)
        out[g - 1] = np.tensordot(self.w_last[:5], window, axes=1)
        return out

    def _field(self, d: np.ndarray) -> np.ndarray:
        d_rho = self._d_rho_of(d)
        spectrum = sfft.fft(d, axis=1)
        spectrum *= self.ik
        d_theta = sfft.ifft(spectrum, axis=1, overwrite_x=True)
        x1 = self.base_x1 + d_rho * self.cos_theta + d_theta * self.msin_over_rho
        x2 = self.base_x2 + d_rho * self.sin_theta + d_theta * self.cos_over_rho

        # Gram entries g_jk = Re sum_l eps_l x_j,l conj(x_k,l), written out
        # in real arithmetic per component l
        x1r, x1i, x2r, x2i = x1.real, x1.imag, x2.real, x2.imag
        a11 = x1r * x1r + x1i * x1i
        a22 = x2r * x2r + x2i * x2i
        a12 = x1r * x2r + x1i * x2i
        e0, e1 = self.patch.sig.eps
        g11 = e0 * a11[..., 0] + e1 * a11[..., 1]
        g22 = e0 * a22[..., 0] + e1 * a22[..., 1]
        g12 = e0 * a12[..., 0] + e1 * a12[..., 1]
        det = g11 * g22 - g12 * g12
        scale = (a11[..., 0] + a11[..., 1]) * (a22[..., 0] + a22[..., 1])
        if np.any(np.abs(det) < 1e-10 * np.maximum(scale, 1e-300)):
            self.degenerate = True
            raise FlowDegeneracy("induced metric degenerated during the flow")
        inv_det = 1.0 / det
        a1 = (g22 * self.dh1 - g12 * self.dh2) * inv_det
        a2 = (g11 * self.dh2 - g12 * self.dh1) * inv_det
        grad_h = a1[..., None] * x1 + a2[..., None] * x2
        return -1j * grad_h

    def run(self) -> np.ndarray:
        d = np.zeros_like(self.base)
        dt = self.spec.step_size
        for _ in range(self.spec.steps):
            k1 = self._field(d)
            k2 = self._field(d + 0.5 * dt * k1)
            k3 = self._field(d + 0.5 * dt * k2)
            k4 = self._field(d + dt * k3)
            d = d + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if np.max(np.abs(self.base + d)) > self.ambient_bound:
                raise FlowDivergence("flow left the configured ambient bound")
        return d


def hamiltonian_perturb(patch: ImmersionPatch, spec: PerturbationSpec,
                        grid: tuple[int, int] = FLOW_GRID,
                        ambient_bound: float = AMBIENT_BOUND) -> ImmersionPatch:
    """Deform a patch along the compactly supported Hamiltonian field.

    The returned patch evaluates exactly as the input outside the bump
    support; inside, the flowed displacement is interpolated from the
    polar solution grid (bicubic, with the exact zero ring and center
    values pinned).  Jets are finite differences of the evaluation map.
    """
    meta = dict(patch.meta, perturbation=spec)
    if spec.steps == 0 or spec.amplitude == 0.0:
        return replace(patch, meta=meta)

    flow = _PolarFlow(patch, spec, grid, ambient_bound)
    d = flow.run()

    rho_full = np.concatenate([[0.0], flow.rho, [spec.radius]])
    pad = 3
    theta_full = np.concatenate([flow.theta[-pad:] - 2.0 * np.pi, flow.theta,
                                 flow.theta[:pad] + 2.0 * np.pi])

    def padded(values: np.ndarray) -> np.ndarray:
        with_bounds = np.concatenate(
            [np.zeros((1,) + values.shape[1:]), values,
             np.zeros((1,) + values.shape[1:])], axis=0)
        return np.concatenate([with_bounds[:, -pad:], with_bounds, with_bounds[:, :pad]], axis=1)

    splines = []
    for comp in range(2):
        grid_vals = padded(d[..., comp])
        splines.append((
            RectBivariateSpline(rho_full, theta_full, grid_vals.real, kx=3, ky=3),
            RectBivariateSpline(rho_full, theta_full, grid_vals.imag, kx=3, ky=3),
        ))

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
        rho_in, theta_in = rho[inside], theta[inside]
        disp = np.empty(rho_in.shape + (2,), dtype=complex)
        for comp, (sre, sim) in enumerate(splines):
            disp[..., comp] = sre.ev(rho_in, theta_in) + 1j * sim.ev(rho_in, theta_in)
        out[inside] += disp
        return out

    return replace(patch, f=f, d1=None, d2=None, meta=meta)


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
    base_beta_spread: float
    results: tuple
    grid: tuple

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
    betas = [lagrangian_angle_at(base, u) for u in nodes[:: max(1, len(nodes) // 64)]]
    base_beta_spread = circ_spread(betas)
    if base_beta_spread > 1e-6:
        raise DegenerateInput(
            f"base patch is not minimal: angle spread {base_beta_spread:.3e}")

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
    return VolumeCompareReport(base_volume=base_volume, base_beta_spread=base_beta_spread,
                               results=tuple(results), grid=tuple(np.atleast_1d(grid)))


def random_perturbations(patch: ImmersionPatch, count: int, seed) -> list[PerturbationSpec]:
    """Seeded batch of admissible bump specs inside the patch domain.

    Amplitudes are uniform in [0.02, 0.2]; steps and step size keep the
    PerturbationSpec defaults.  Radii stay near the allowed maximum: the
    deformation field scales like 1 / radius^2, so small bumps at fixed
    amplitude push the flow into an under-resolved regime.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    widths = patch.widths
    lo = patch.domain[:, 0]
    specs = []
    for _ in range(count):
        center = lo + rng.uniform(0.42, 0.58, patch.n) * widths
        slack = np.min(np.minimum(center - lo, lo + widths - center) - 0.05 * widths)
        radius = float(rng.uniform(0.8, 0.97) * slack)
        amplitude = float(rng.uniform(0.02, 0.2))
        specs.append(PerturbationSpec(center=center, radius=radius, amplitude=amplitude))
    return specs
