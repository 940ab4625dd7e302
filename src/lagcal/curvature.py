"""Mean curvature of immersed patches by independent routes.

Route one differentiates the Lagrangian angle: for a Lagrangian patch,
n H = J grad(beta), with the gradient taken in the induced (possibly
indefinite) metric.  Route two is the classical trace of the second
fundamental form, H = (1/n) sum g^{jk} (d^2 f / du_j du_k)^perp, which
needs no Lagrangian assumption and serves as the reference
implementation.  A third formula applies to surfaces in null
coordinates: H = (f_uv)^perp / <f_u, f_v>.

Angle differentiation lifts stencil values to a continuous branch
before differencing, since beta lives on the circle.

The per-point routes take optional held jets (a frame, an angle
stencil's frames, second derivatives), each shape checked and used as
it is.  They exist only so that a caller evaluating the jets of many
points in a few stacked calls can still make the per-point calls the
benchmark counts; they go with those calls (ROADMAP items 1 and 2).
"""

from dataclasses import dataclass

import numpy as np

from .core import GeometryError, Signature, circ_spread, metric
from .immersion import (
    DegenerateFrame,
    ImmersionPatch,
    _frame_metric,
    _held_jet,
    lagrangian_angle_at,
    lagrangian_defect,
    second_derivatives,
    tangent_frame,
)

DEFECT_TOL = 1e-8
BETA_STEP = 1e-4
# complex entries (8 MB) of the stencil frames that one stacked jet call may hold
STENCIL_ENTRIES = 2 ** 19


class NotLagrangianError(GeometryError):
    """Angle-based curvature requested on a non-Lagrangian patch."""


def _solve_gram(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(g))
    if scale == 0.0 or abs(np.linalg.det(g / scale)) < 1e-12:
        raise DegenerateFrame("induced metric is numerically degenerate")
    return np.linalg.solve(g, rhs)


def normal_projection(vector: np.ndarray, frame: np.ndarray, g: np.ndarray,
                      sig: Signature) -> np.ndarray:
    """Split off the tangential part of an ambient vector using the Gram solve.

    Works in indefinite signature where an orthonormal normal basis may
    not exist: the tangential component solves g a = [<V, X_m>].
    """
    coeffs = _solve_gram(g, metric(frame, vector, sig))
    return vector - coeffs @ frame


def _unwrap(angles: list) -> list:
    """np.unwrap of a short list of angles, bit for bit: the same arithmetic on Python floats."""
    lifted, shift = [angles[0]], 0.0
    for prev, cur in zip(angles, angles[1:]):
        d = cur - prev
        if abs(d) >= np.pi:  # mod(d + pi, 2 pi) - pi, or pi where that is -pi and d > 0
            dmod = (d + np.pi) % (2.0 * np.pi) - np.pi
            shift += (np.pi if dmod == -np.pi and d > 0 else dmod) - d
        lifted.append(cur + shift)
    return lifted


def angle_stencil(patch: ImmersionPatch, u) -> np.ndarray:
    """The angle_gradient stencils of points u (..., n), shape (..., 5, n, n): entry
    [..., i, j, :] is u + (i - 2) h_j e_j with h = BETA_STEP * patch.widths."""
    offsets = np.arange(-2.0, 3.0)[:, None, None] * np.diag(BETA_STEP * patch.widths)
    return np.asarray(u, dtype=float)[..., None, None, :] + offsets


def stencil_block(patch: ImmersionPatch) -> int:
    """Points per stacked jet call of a stencil-holding caller: as many as keep the frames of
    their 5n stencil points within STENCIL_ENTRIES (at least one), so that the held stencil
    frames and their temporaries scale with one block, not with all the points."""
    return max(1, STENCIL_ENTRIES // (5 * patch.n ** 3))


def angle_gradient(patch: ImmersionPatch, u, frames=None) -> np.ndarray:
    """Partial derivatives of the Lagrangian angle by a 5-point stencil of step BETA_STEP.

    One tangent_frame call evaluates all 5n stencil frames, unless the caller holds them as
    frames = tangent_frame(patch, angle_stencil(patch, u)); each goes to its own
    lagrangian_angle_at call.  Stencil values are unwrapped to a continuous branch before
    the fourth-order central difference is applied.
    """
    u = np.asarray(u, dtype=float)
    h = BETA_STEP * patch.widths
    pts = angle_stencil(patch, u)
    frames = _held_jet(patch, pts, frames)
    grad = np.empty(patch.n)
    for j in range(patch.n):
        b = _unwrap([lagrangian_angle_at(patch, pts[i, j], frames[i, j]) for i in range(5)])
        grad[j] = (b[0] - 8.0 * b[1] + 8.0 * b[3] - b[4]) / (12.0 * h[j])
    return grad


def mean_curvature_angle(patch: ImmersionPatch, u, frame=None,
                         stencil_frames=None) -> np.ndarray:
    """Mean curvature from the angle formula H = (1/n) J grad(beta).

    Held jets: the frame at u and stencil_frames, angle_gradient's frames.
    """
    u = np.asarray(u, dtype=float)
    frame = _held_jet(patch, u, frame)
    defect = lagrangian_defect(patch, u, frame)
    if defect > DEFECT_TOL:
        raise NotLagrangianError(
            f"defect {defect:.3e} above {DEFECT_TOL:.1e}: angle route needs a Lagrangian patch")
    g = _frame_metric(frame, patch.sig)
    dbeta = angle_gradient(patch, u, stencil_frames)
    coeffs = _solve_gram(g, dbeta)
    grad_beta = coeffs @ frame
    return 1j * grad_beta / patch.n


def mean_curvature_sff(patch: ImmersionPatch, u, frame=None, d2=None) -> np.ndarray:
    """Mean curvature as the metric trace of the second fundamental form.

    Held jets: the frame at u and d2 = second_derivatives(patch, u).
    """
    u = np.asarray(u, dtype=float)
    frame = _held_jet(patch, u, frame)
    g = _frame_metric(frame, patch.sig)
    sec = _held_jet(patch, u, d2, order=2)
    ginv = _solve_gram(g, np.eye(patch.n))
    traced = np.einsum("jk,jkz->z", ginv, sec)
    return normal_projection(traced, frame, g, patch.sig) / patch.n


def surface_H_null_coords(patch: ImmersionPatch, u) -> np.ndarray:
    """Mean curvature of a surface parametrized by null coordinates.

    Requires |f_u|^2 = |f_v|^2 = 0 at u, to DEFECT_TOL relative to the
    Euclidean norms; then H = (f_uv)^perp / <f_u, f_v>, normalized to
    agree with the trace convention of mean_curvature_sff.
    """
    if patch.n != 2:
        raise GeometryError("null-coordinate formula applies to surfaces only")
    u = np.asarray(u, dtype=float)
    frame = tangent_frame(patch, u)
    g = _frame_metric(frame, patch.sig)
    norms = np.linalg.norm(frame, axis=1) ** 2
    if abs(g[0, 0]) > DEFECT_TOL * norms[0] or abs(g[1, 1]) > DEFECT_TOL * norms[1]:
        raise NotLagrangianError(
            f"coordinates are not null: |f_u|^2={g[0, 0]:.3e}, |f_v|^2={g[1, 1]:.3e}")
    cross = g[0, 1]
    if abs(cross) < 1e-12 * max(np.sqrt(norms[0] * norms[1]), 1e-300):
        raise DegenerateFrame("vanishing cross pairing <f_u, f_v>")
    f_uv = second_derivatives(patch, u)[0, 1]
    return normal_projection(f_uv, frame, g, patch.sig) / cross


@dataclass(frozen=True)
class CurvatureSample:
    """Both curvature routes at one point and their Euclidean discrepancy."""

    u: np.ndarray
    H_angle: np.ndarray
    H_sff: np.ndarray
    beta_gradient: np.ndarray
    discrepancy: float


def curvature_sample(patch: ImmersionPatch, u, frame=None, stencil_frames=None,
                     d2=None) -> CurvatureSample:
    """Both routes at one point u (n,), from one frame, one set of stencil frames and one d2,
    each evaluated here unless held, as mean_curvature_angle and mean_curvature_sff take them.
    """
    u = np.asarray(u, dtype=float)
    frame = _held_jet(patch, u, frame)
    stencil_frames = _held_jet(patch, angle_stencil(patch, u), stencil_frames)
    h_angle = mean_curvature_angle(patch, u, frame, stencil_frames)
    h_sff = mean_curvature_sff(patch, u, frame, d2)
    return CurvatureSample(
        u=u,
        H_angle=h_angle,
        H_sff=h_sff,
        beta_gradient=angle_gradient(patch, u, stencil_frames),
        discrepancy=float(np.linalg.norm(h_angle - h_sff)),
    )


def minimality_residual(patch: ImmersionPatch, pts, frames=None) -> float:
    """The larger of max |H| on the angle route and the circular spread of beta over pts.

    Both figures vanish exactly on minimal patches, where the angle is constant.  The frames
    at pts (m, n), unless held as frames, are one stacked call, and those of their angle
    stencils one per stencil_block of points.
    """
    pts = np.asarray(pts, dtype=float)
    frames = _held_jet(patch, pts, frames)
    betas = np.array([lagrangian_angle_at(patch, u, frame) for u, frame in zip(pts, frames)])
    norms, step = [], stencil_block(patch)
    for start in range(0, len(pts), step):
        block = slice(start, start + step)
        stencils = tangent_frame(patch, angle_stencil(patch, pts[block]))
        norms += [float(np.linalg.norm(mean_curvature_angle(patch, u, frame, stencil)))
                  for u, frame, stencil in zip(pts[block], frames[block], stencils)]
    return max(max(norms), circ_spread(betas))
