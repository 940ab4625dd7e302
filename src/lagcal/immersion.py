"""Parametric immersed patches in C^n and their first-order geometry.

A patch maps an axis-aligned box in R^n into C^n.  Jets are either
analytic (closed-form first and second derivative callables) or central
finite differences of the evaluation map, with steps scaled per axis by
the box width.  Everything downstream (induced metric, Lagrangian
defect, Lagrangian angle, volume element) is a pure function of the
patch and a parameter point.
"""

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DegenerateInput,
    DimensionMismatch,
    GeometryError,
    Signature,
    herm_gram,
    hol_volume,
)

FD_STEP = 1e-5
FD_STEP2 = 1e-4
DEGENERACY_TOL = 1e-9


class BoundaryError(GeometryError):
    """A finite-difference stencil left the parameter box."""


class DegenerateFrame(GeometryError):
    """Tangent frame below the non-degeneracy threshold."""


@dataclass(frozen=True, eq=False)
class ImmersionPatch:
    """Immutable parametric patch with derivative access.

    f maps a parameter point (shape (n,)) to a point of C^n; when
    ``vectorized`` is set it must also broadcast over stacked inputs of
    shape (..., n).  d1(u) returns the (n, n) array of rows df/du_j and
    d2(u) the (n, n, n) array of second partials; absent jets fall back
    to central finite differences with relative steps fd_step / fd_step2.
    """

    sig: Signature
    domain: np.ndarray
    f: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray] | None = None
    d2: Callable[[np.ndarray], np.ndarray] | None = None
    fd_step: float = FD_STEP
    fd_step2: float = FD_STEP2
    vectorized: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        dom = np.asarray(self.domain, dtype=float)
        if dom.ndim != 2 or dom.shape != (self.sig.n, 2):
            raise DimensionMismatch(
                f"domain must be an ({self.sig.n}, 2) box, got shape {dom.shape}")
        if np.any(dom[:, 1] <= dom[:, 0]):
            raise DimensionMismatch("domain intervals must have positive width")
        object.__setattr__(self, "domain", dom)

    @property
    def n(self) -> int:
        return self.sig.n

    @property
    def widths(self) -> np.ndarray:
        return self.domain[:, 1] - self.domain[:, 0]

    def steps(self, order: int = 1) -> np.ndarray:
        rel = self.fd_step if order == 1 else self.fd_step2
        return rel * self.widths


def _check_point(patch: ImmersionPatch, u, margin: np.ndarray | float = 0.0) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (patch.n,):
        raise DimensionMismatch(f"parameter point must have shape ({patch.n},), got {u.shape}")
    lo = patch.domain[:, 0] + margin
    hi = patch.domain[:, 1] - margin
    if (u < lo).any() or (u > hi).any():
        raise BoundaryError(f"point {u} outside domain (margin {margin})")
    return u


def finite_difference_frame(patch: ImmersionPatch, u, step: float | None = None) -> np.ndarray:
    """Central-difference tangent frame, usable as an oracle against analytic jets."""
    h = patch.steps(1) if step is None else step * patch.widths
    u = _check_point(patch, u, margin=h)
    rows = []
    for j in range(patch.n):
        e = np.zeros(patch.n)
        e[j] = h[j]
        rows.append((patch.f(u + e) - patch.f(u - e)) / (2.0 * h[j]))
    return np.asarray(rows, dtype=complex)


def tangent_frame(patch: ImmersionPatch, u) -> np.ndarray:
    """Rows df/du_1, ..., df/du_n at u."""
    if patch.d1 is not None:
        u = _check_point(patch, u)
        return np.asarray(patch.d1(u), dtype=complex)
    return finite_difference_frame(patch, u)


def second_derivatives(patch: ImmersionPatch, u) -> np.ndarray:
    """Symmetric array s[j, k] = d^2 f / du_j du_k at u."""
    if patch.d2 is not None:
        u = _check_point(patch, u)
        return np.asarray(patch.d2(u), dtype=complex)
    h = patch.steps(2)
    u = _check_point(patch, u, margin=h)
    n = patch.n
    out = np.empty((n, n, n), dtype=complex)
    f0 = patch.f(u)
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = h[j]
        out[j, j] = (patch.f(u + ej) - 2.0 * f0 + patch.f(u - ej)) / h[j] ** 2
        for k in range(j + 1, n):
            ek = np.zeros(n)
            ek[k] = h[k]
            mixed = (patch.f(u + ej + ek) - patch.f(u + ej - ek)
                     - patch.f(u - ej + ek) + patch.f(u - ej - ek)) / (4.0 * h[j] * h[k])
            out[j, k] = mixed
            out[k, j] = mixed
    return out


def induced_metric(patch: ImmersionPatch, u) -> np.ndarray:
    """Pullback metric Gram matrix g_jk = <X_j, X_k> of the tangent frame."""
    frame = tangent_frame(patch, u)
    g = herm_gram(frame, patch.sig).real
    return (g + g.T) / 2.0


def metric_signature(g, tol: float | None = None) -> tuple[int, int, int]:
    """Eigenvalue sign counts (positive, negative, null) of a symmetric matrix.

    The default threshold scales with the largest eigenvalue magnitude.
    """
    g = np.asarray(g, dtype=float)
    vals = np.linalg.eigvalsh((g + g.T) / 2.0)
    scale = np.max(np.abs(vals)) if vals.size else 0.0
    if tol is None:
        tol = DEGENERACY_TOL * max(scale, 1.0)
    pos = int(np.sum(vals > tol))
    neg = int(np.sum(vals < -tol))
    return pos, neg, len(vals) - pos - neg


def lagrangian_defect(patch: ImmersionPatch, u) -> float:
    """Largest normalized symplectic pairing among tangent vectors at u."""
    frame = tangent_frame(patch, u)
    omega = -herm_gram(frame, patch.sig).imag
    norms = np.linalg.norm(frame, axis=1)
    denom = np.outer(norms, norms)
    denom[denom == 0.0] = 1.0
    iu = np.triu_indices(patch.n, k=1)
    if iu[0].size == 0:
        return 0.0
    return float(np.max(np.abs(omega[iu] / denom[iu])))


def lagrangian_angle_at(patch: ImmersionPatch, u, tol: float = DEGENERACY_TOL) -> float:
    """Principal argument of the holomorphic volume of the tangent frame."""
    frame = tangent_frame(patch, u)
    det = hol_volume(frame)
    scale = float(np.prod(np.linalg.norm(frame, axis=1)))
    if abs(det) <= tol * max(scale, np.finfo(float).tiny):
        raise DegenerateFrame(f"holomorphic volume {abs(det):.3e} below tolerance at {u}")
    return float(np.angle(det))


def dvol(patch: ImmersionPatch, u) -> float:
    """Volume element sqrt(|det g|) at u."""
    g = induced_metric(patch, u)
    return float(np.sqrt(abs(np.linalg.det(g))))


def midpoint_grid(patch: ImmersionPatch, grid) -> tuple[np.ndarray, float]:
    """Tensor-product midpoint nodes (N, n) and the common cell volume."""
    counts = np.broadcast_to(np.asarray(grid, dtype=int), (patch.n,))
    if np.any(counts < 1):
        raise DimensionMismatch("need at least one quadrature cell per axis")
    axes = []
    for j in range(patch.n):
        lo, hi = patch.domain[j]
        step = (hi - lo) / counts[j]
        axes.append(lo + step * (np.arange(counts[j]) + 0.5))
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    cell = float(np.prod(patch.widths / counts))
    return nodes, cell


def fd_dvol_on_nodes(patch: ImmersionPatch, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference volume element at nodes (N, n), with degeneracy flags.

    Needs an evaluation map that broadcasts over stacked points.  A node is
    flagged when its volume element is at most DEGENERACY_TOL times the
    product of its frame vector norms.
    """
    h = patch.steps(1)
    frames = np.empty((nodes.shape[0], patch.n, patch.n), dtype=complex)
    for j in range(patch.n):
        e = np.zeros(patch.n)
        e[j] = h[j]
        frames[:, j, :] = (np.asarray(patch.f(nodes + e)) - np.asarray(patch.f(nodes - e))) \
            / (2.0 * h[j])
    gram = (frames * patch.sig.eps) @ frames.conj().swapaxes(-1, -2)
    dv = np.sqrt(np.abs(np.linalg.det(gram.real)))
    scale = np.prod(np.linalg.norm(frames, axis=-1), axis=-1)
    return dv, dv <= DEGENERACY_TOL * np.maximum(scale, np.finfo(float).tiny)


def dvol_on_nodes(patch: ImmersionPatch, nodes: np.ndarray) -> np.ndarray:
    """Volume element at many nodes, batched when the patch allows it."""
    if patch.vectorized and patch.d1 is None:
        return fd_dvol_on_nodes(patch, nodes)[0]
    return np.array([dvol(patch, u) for u in nodes])


def patch_volume(patch: ImmersionPatch, grid) -> float:
    """Tensor-product midpoint quadrature of the volume element.

    Summation is numpy's pairwise reduction, so the result is
    deterministic for a fixed grid.
    """
    nodes, cell = midpoint_grid(patch, grid)
    return float(np.sum(dvol_on_nodes(patch, nodes)) * cell)


def reparametrize(patch: ImmersionPatch, matrix, offset, new_domain) -> ImmersionPatch:
    """Affine change of parameters u = A v + b with exactly transformed jets."""
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
            return np.einsum("jk,ml,jmz->klz", a, a, s)

    return ImmersionPatch(
        sig=patch.sig,
        domain=np.asarray(new_domain, dtype=float),
        f=f,
        d1=d1,
        d2=d2,
        fd_step=patch.fd_step,
        fd_step2=patch.fd_step2,
        vectorized=patch.vectorized,
        meta=dict(patch.meta, reparametrized=True),
    )


def interior_samples(patch: ImmersionPatch, count: int, rng: np.random.Generator,
                     margin: float = 0.05) -> np.ndarray:
    """Uniform samples in the box shrunk by a relative margin per axis.

    The margin keeps finite-difference stencils (including the angle
    stencils used by curvature routines) inside the domain.
    """
    lo = patch.domain[:, 0] + margin * patch.widths
    hi = patch.domain[:, 1] - margin * patch.widths
    return rng.uniform(lo, hi, size=(count, patch.n))


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
        d1=lambda u: eye.copy(),
        d2=lambda u: np.zeros((n, n, n), dtype=complex),
        vectorized=True,
        meta={"family": "flat"},
    )
