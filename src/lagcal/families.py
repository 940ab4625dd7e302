"""Generators for the explicit Lagrangian families.

Every generator returns an :class:`~lagcal.immersion.ImmersionPatch`
with closed-form first and second jets, so defect and curvature tests
run at analytic accuracy.  Each curved family states its value and jets
once, in one ``jets(u, order)`` closure handed to
:meth:`~lagcal.immersion.ImmersionPatch.from_jets`:

* flat plane             f(u) = sum u_j e_j
* equivariant            f(t, s) = gamma(s) x(t), x on the quadric <x,x>_p = eps
* catenoid               equivariant with the polar curve Im gamma^n = c
* evolving quadric       f(t, s) = r(s) exp(i M s) x(t), M self-adjoint,
                         x on <x, M x>_p = c
* product of null curves f(u, v) = gamma_1(u) + J gamma_2(v) inside a
                         totally null plane P and J P
* circle-rotation torus  f(s, t) = (gamma_1(s) e^{it}, gamma_2(s) e^{it}),
                         gamma on the unit 3-sphere

The equivariant families (catenoids included) and the evolving quadric
also hand their patch a closed-form Lagrangian angle law, ``meta["angle_law"]``,
an :class:`AngleLaw` over stacked points.

Quadric hypersurfaces are charted in graph coordinates: one coordinate
is solved from the quadratic equation, the rest stay free, and the jets
come from implicit differentiation.  Charts are oriented so that the
real determinant of (chart tangents, position) is positive, which pins
the sign conventions of the Lagrangian angle formulas.
"""

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    GeometryError,
    DegenerateInput,
    DimensionMismatch,
    NULL_PLANE_BASIS,
    Signature,
    frame_quantities,
    matrix_exp,
    metric,
    plane_props,
    wrap_angle,
)
from .immersion import ImmersionPatch, make_flat_patch
from .spline import cubic_basis, not_a_knot

SELF_ADJOINT_TOL = 1e-10
CHART_HALF_WIDTH = 0.35
CHART_FIELDS = ("chart_center", "chart_half_width")  # the spec fields that fix a chart's box
SECTOR_MARGIN = 0.05


class FamilySpecError(GeometryError):
    """A family specification violates its constraints.

    ``fields`` names the spec attributes the failed check reads, e.g. ``("sector", "c")``.
    """

    def __init__(self, message: str, fields: tuple = ()):
        super().__init__(message)
        self.fields = fields


# --- curves -------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Curve:
    """Curve s -> C^k with closed-form jets: the profile gamma(s), a radial
    profile r(s), a real coefficient pair or a sphere curve.

    ``jets(s, order)``, order <= 2, computes [value, d1, ..., d_order] and no
    higher order from one evaluation of their shared factors, broadcast over s
    with shape ``s.shape`` (scalar curves) or ``s.shape + (k,)`` (k components).
    ``interval`` is the parameter interval; radial profiles, whose interval is
    the family's ``s_interval``, carry None.
    """

    jets: Callable
    interval: tuple[float, float] | None = None

    @staticmethod
    def line(z0: complex, z1: complex, interval) -> "Curve":
        def jets(s, order):
            s = np.asarray(s, dtype=float)
            out = [z0 + z1 * s]
            if order > 0:
                out.append(z1 * np.ones_like(s, dtype=complex))
            if order > 1:
                out.append(np.zeros_like(s, dtype=complex))
            return out

        return Curve(jets, tuple(interval))

    @staticmethod
    def exponential(z0, rate, interval=None) -> "Curve":
        """z0 e^{rate s}, componentwise when z0 and rate are equal-length sequences.

        Circles (rate = i), constant profiles (rate = 0), real-exponential
        pairs and the Clifford-type torus curves (rate = i k) are all of this form.
        """
        z0, rate = np.asarray(z0), np.asarray(rate)
        if z0.shape != rate.shape or z0.ndim > 1:
            raise DimensionMismatch(f"z0 {z0.shape} and rate {rate.shape} must be scalars "
                                    f"or sequences of one length")

        def jets(s, order):
            val = z0 * np.exp(np.multiply.outer(np.asarray(s, dtype=float), rate))
            out = [val]
            if order > 0:
                out.append(rate * val)
            if order > 1:
                out.append(rate * rate * val)
            return out

        return Curve(jets, None if interval is None else tuple(interval))

    @staticmethod
    def great_circle(interval=(0.0, 2.0 * np.pi)) -> "Curve":
        """The great circle (cos s, sin s) of the unit 3-sphere in C^2."""
        def jets(s, order):
            s = np.asarray(s, dtype=float)
            cos, sin = np.cos(s).astype(complex), np.sin(s).astype(complex)
            out = [np.stack([cos, sin], axis=-1)]
            if order > 0:
                out.append(np.stack([-sin, cos], axis=-1))
            if order > 1:
                out.append(-out[0])
            return out

        return Curve(jets, tuple(interval))

    @staticmethod
    def from_samples(s, values) -> "Curve":
        """Not-a-knot cubic spline (lagcal.spline) through (s, values), with 4 or more
        finite, strictly increasing s, else ValueError; values keep their dtype,
        complex for a profile gamma, real of shape (len(s), k) for a coefficient pair."""
        s, values = np.asarray(s, dtype=float), np.asarray(values)
        if (s.ndim != 1 or len(s) < 4 or not np.all(np.isfinite(s)) or np.any(np.diff(s) <= 0)
                or values.shape[:1] != s.shape):
            raise ValueError(f"needs 4 or more finite, strictly increasing points and one value "
                             f"per point, got points {s.shape} and values {values.shape}")
        knots, coef = not_a_knot(s, values)

        def jets(x, order):
            x = np.asarray(x, dtype=float)
            bases = (cubic_basis(knots, x.ravel(), deriv) for deriv in range(order + 1))
            return [np.einsum("na,na...->n...", w, coef[first[:, None] + np.arange(4)])
                    .reshape(x.shape + coef.shape[1:]) for first, w in bases]

        return Curve(jets, (float(s[0]), float(s[-1])))


# --- quadric machinery --------------------------------------------------------

def check_self_adjoint(M, sig: Signature) -> float:
    """Asymmetry residual of diag(eps) @ M; zero iff M is <.,.>_p self-adjoint."""
    M = np.asarray(M, dtype=float)
    if M.shape != (sig.n, sig.n):
        raise DimensionMismatch(f"matrix shape {M.shape} does not match n={sig.n}")
    q = sig.eps[:, None] * M
    return float(np.max(np.abs(q - q.T)))


def mat_exp_iMs(M, s) -> np.ndarray:
    """exp(i s M) by scaling and squaring, stacked over s; valid for non-diagonalizable M."""
    s = np.asarray(s, dtype=float)
    return matrix_exp(1j * s[..., None, None] * np.asarray(M, dtype=float))


def quadric_rhs(M, sig: Signature, x) -> np.ndarray:
    """Quadratic form <x, M x>_p, broadcast over stacked points."""
    x = np.asarray(x, dtype=float)
    q = sig.eps[:, None] * np.asarray(M, dtype=float)
    return np.einsum("...i,ij,...j->...", x, q, x)


def sample_quadric(M, c: float, sig: Signature, count: int, seed: int) -> np.ndarray:
    """Points on <x, M x>_p = c by sphere rejection with radial rescaling."""
    if c == 0.0:
        raise FamilySpecError("sampling the cone c = 0 is unsupported; use explicit linear pieces",
                              ("c",))
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count + 1000:
            raise FamilySpecError("quadric sampler failed: sign of the form never matches c",
                                  ("sig", "matrix", "c"))
        y = rng.normal(size=sig.n)
        y /= np.linalg.norm(y)
        q = float(quadric_rhs(M, sig, y))
        if np.sign(q) != np.sign(c):
            continue
        out.append(y * np.sqrt(c / q))
    return np.asarray(out)


class QuadricChart:
    """Oriented graph-coordinate chart of { x : <x, M x>_p = c } around a center point.

    The constructor checks the center and the box, on which the form must not
    overflow, and derives the chart in one pass: the coordinate solve_index (the
    largest gradient component at the center) is solved for and the others, free,
    stay chart coordinates; branch picks the root through the center, box is the
    cube of half_width around it, and the signed form q = diag(eps) M and its
    blocks are built once.  The chart is oriented: flip makes the real determinant
    det(tangents, x) positive at the center.  jets(t, order) solves the defining
    quadratic once, broadcast over stacked chart coordinates (..., n-1), and
    differentiates it implicitly up to the order asked.
    """

    def __init__(self, M, c: float, sig: Signature, center, half_width: float = CHART_HALF_WIDTH):
        if not 0.0 < 2.0 * float(half_width) < np.inf:
            raise FamilySpecError("the chart half-width must be positive and the box width "
                                  "2 half_width finite", ("chart_half_width",))
        if sig.n < 2:
            raise FamilySpecError("quadric charts need n >= 2", ("sig.n",))
        n = sig.n
        M = np.asarray(M, dtype=float)
        center = np.asarray(center, dtype=float)
        if center.shape != (n,):
            raise DimensionMismatch(f"center must have shape ({n},)")
        with np.errstate(over="ignore", invalid="ignore"):  # a huge center misses the quadric
            residual = float(quadric_rhs(M, sig, center)) - c
            if not abs(residual) <= 1e-9 * max(abs(c), center @ center, 1.0) < np.inf:
                raise FamilySpecError(f"chart center misses the quadric by {residual:.3e}",
                                      ("chart_center",))
        q = sig.eps[:, None] * M
        # |q x| <= n reach on the box, so q x x and (q x)^2 in jets stay below (2 n^1.5 reach)^2
        reach = (1.0 + float(np.abs(q).max())) * (float(np.abs(center).max()) + half_width)
        if not np.isfinite(4.0 * n ** 3 * reach * reach):
            raise FamilySpecError(f"the quadric form overflows on the chart box of half-width "
                                  f"{half_width:g}", CHART_FIELDS)
        grad = 2.0 * q @ center
        m = int(np.argmax(np.abs(grad)))
        if abs(grad[m]) < 1e-9 * max(np.linalg.norm(center), 1.0):
            raise FamilySpecError("chart center has vanishing quadric gradient", ("chart_center",))
        free = np.delete(np.arange(n), m)
        self.M, self.c, self.sig, self.center = M, float(c), sig, center
        self.q, self.solve_index, self.free, self.center_coords = q, m, free, center[free]
        self.box = np.stack([center[free] - half_width, center[free] + half_width], axis=-1)
        self._q_mf, self._q_ff, self._q_mm = q[m, free], q[np.ix_(free, free)], q[m, m]
        self.branch = (1.0 if not abs(self._q_mm) > 1e-13
                       or self._q_mm * center[m] + center[free] @ self._q_mf >= 0.0 else -1.0)
        # Tangent rows without their solved column: flip_a e_{free[a]}.
        self.flip = np.ones(n - 1)
        self._tangents = np.zeros((n - 1, n))
        self._tangents[np.arange(n - 1), free] = 1.0
        # Orientation: det(tangent rows, position) > 0 at the center.
        det = np.linalg.det(np.vstack([self.jets(self.center_coords, 1)[1], center]))
        if abs(det) < 1e-12:
            raise FamilySpecError("chart orientation is undefined (position tangent to quadric)",
                                  ("chart_center",))
        if det < 0.0:
            self.flip[0] = self._tangents[0, free[0]] = -1.0
        for value in (q, free, self.center_coords, self.box, self.flip, self._q_mf, self._q_ff,
                      self._tangents):
            value.flags.writeable = False

    def jets(self, t, order: int) -> list:
        """[x, dx/dt, d^2x/dt^2][:order + 1] at chart coordinates t (..., n-1), order <= 2.

        Shapes (..., n), (..., n-1, n) and (..., n-1, n-1, n).  The points x
        come from one root solve; their implicit derivatives share one q x.
        """
        m, free = self.solve_index, self.free
        t = np.asarray(t, dtype=float)
        y = self.center_coords + self.flip * (t - self.center_coords)
        a = self._q_mm
        b = y @ self._q_mf
        cc = np.einsum("...i,ij,...j->...", y, self._q_ff, y) - self.c
        x = np.empty(y.shape[:-1] + (self.sig.n,))
        x[..., free] = y
        if abs(a) > 1e-13:
            disc = b * b - a * cc
            if not (disc > 0.0).all():  # a NaN discriminant, too
                raise FamilySpecError("quadric chart has no real root on its box", CHART_FIELDS)
            x[..., m] = (-b + self.branch * np.sqrt(disc)) / a
        else:
            if (np.abs(b) < 1e-13).any():
                raise FamilySpecError("quadric chart has a vanishing gradient", CHART_FIELDS)
            x[..., m] = -cc / (2.0 * b)
        if order == 0:
            return [x]
        qx = x @ self.q.T  # half the gradient of the form
        qx_m = qx[..., m, None]
        if (np.abs(qx_m) < 1e-12 * np.maximum(np.sqrt((qx * qx).sum(axis=-1, keepdims=True)),
                                              5e-301)).any():
            raise FamilySpecError("the quadric is not a graph over the chart", CHART_FIELDS)
        jac = np.empty(x.shape[:-1] + self._tangents.shape)
        jac[...] = self._tangents
        jac[..., m] = self.flip * (-qx[..., free] / qx_m)
        if order == 1:
            return [x, jac]
        qv = jac @ self.q.T  # row b is q @ (dx/dt_b)
        qx_m = qx_m[..., None]
        num = qv[..., free] * qx_m - qx[..., None, free] * qv[..., m, None]
        hess = np.zeros(jac.shape[:-1] + jac.shape[-2:])
        hess[..., m] = np.swapaxes(-self.flip * num / qx_m ** 2, -1, -2)
        return [x, jac, hess]


def find_quadric_point(M, c: float, sig: Signature) -> np.ndarray:
    """Deterministic point on <x, M x>_p = c avoiding degenerate loci.

    Prefers points where the hypersurface is non-degenerate, i.e.
    |<M x, M x>_p| is bounded away from zero.
    """
    for x in sample_quadric(M, c, sig, 64, seed=20240):
        mx = np.asarray(M, dtype=float) @ x
        if abs(float(metric(mx, mx, sig))) > 0.1 * float(mx @ mx):
            return x
    raise FamilySpecError("could not locate a non-degenerate quadric point",
                          ("sig", "matrix", "c"))


# --- family specifications ----------------------------------------------------
# Each spec class is its kind's document schema: lagcal.cli.parse_family reads its fields.

@dataclass(frozen=True, eq=False, kw_only=True)
class FlatPlane:
    sig: Signature


@dataclass(frozen=True, eq=False, kw_only=True)
class Equivariant:
    sig: Signature
    gamma: Curve
    epsilon: int = 1
    chart_center: np.ndarray | None = None
    chart_half_width: float = CHART_HALF_WIDTH


@dataclass(frozen=True, eq=False, kw_only=True)
class Catenoid:
    sig: Signature
    c: float
    epsilon: int = 1
    sector: int = 0
    chart_center: np.ndarray | None = None
    chart_half_width: float = CHART_HALF_WIDTH


@dataclass(frozen=True, eq=False, kw_only=True)
class EvolvingQuadric:
    sig: Signature
    matrix: np.ndarray
    c: float
    r: Curve = field(default_factory=lambda: Curve.exponential(1.0, 0.0))
    s_interval: tuple[float, float] = (-0.4, 0.4)
    chart_center: np.ndarray | None = None
    chart_half_width: float = CHART_HALF_WIDTH


@dataclass(frozen=True, eq=False, kw_only=True)
class ProductNullCurves:
    sig: Signature
    gamma1: Curve
    gamma2: Curve
    plane: np.ndarray = field(default_factory=lambda: NULL_PLANE_BASIS)


@dataclass(frozen=True, eq=False, kw_only=True)
class Hopf:
    sig: Signature
    gamma: Curve


# the spec class of each family kind a document names
FAMILY_KINDS = {
    "flat": FlatPlane,
    "equivariant": Equivariant,
    "catenoid": Catenoid,
    "evolving-quadric": EvolvingQuadric,
    "product-null-curves": ProductNullCurves,
    "hopf": Hopf,
}


# --- generators ----------------------------------------------------------------

def _finite_frames(patch: ImmersionPatch, probe, fields: tuple) -> ImmersionPatch:
    """The patch, if the volume element of its frames at the probe points (k, n) is finite
    and frame_quantities flags none degenerate; else a FamilySpecError naming fields.  The
    one build-time check of every curved family's frames; it draws no random numbers."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = frame_quantities(patch.d1(probe), patch.sig)
    for bad, what in ((~np.isfinite(q["dvol"]), "overflows"), (q["degenerate"], "degenerates")):
        if bad.any():
            raise FamilySpecError(f"the volume element of the frames {what} at u = "
                                  f"{probe[bad][0]}", fields)
    return patch


class AngleLaw(NamedTuple):
    """A family's closed-form Lagrangian angle ``beta(u)`` at stacked points u (..., n):
    exact, or (``exact`` False) up to an additive constant."""

    beta: Callable
    exact: bool


def make_equivariant(spec: Equivariant) -> ImmersionPatch:
    """The patch gamma(s) x(t), x on the quadric <x,x>_p = epsilon (chart axes first, s last)."""
    sig, gamma = spec.sig, spec.gamma
    if spec.epsilon not in (-1, 1):
        raise FamilySpecError("epsilon must be +1 or -1", ("epsilon",))
    if spec.epsilon == 1 and sig.p == sig.n:
        raise FamilySpecError("the quadric <x,x>_p = 1 is empty for p = n", ("sig", "epsilon"))
    if spec.epsilon == -1 and sig.p == 0:
        raise FamilySpecError("the quadric <x,x>_p = -1 is empty for p = 0", ("sig.p", "epsilon"))
    if spec.chart_center is not None:
        center = np.asarray(spec.chart_center, dtype=float)
    else:
        center = np.zeros(sig.n)
        center[0 if spec.epsilon == -1 else sig.n - 1] = 1.0
    chart = QuadricChart(np.eye(sig.n), float(spec.epsilon), sig, center, spec.chart_half_width)
    n = sig.n
    domain = np.vstack([chart.box, gamma.interval])

    def jets(u, order):
        u = np.asarray(u, dtype=float)
        t, s = u[..., :n - 1], u[..., n - 1]
        g = [np.asarray(jet) for jet in gamma.jets(s, order)]
        x = chart.jets(t, order)
        out = [g[0][..., None] * x[0]]
        if order > 0:
            rows = np.empty(u.shape[:-1] + (n, n), dtype=complex)
            rows[..., :n - 1, :] = g[0][..., None, None] * x[1]
            rows[..., n - 1, :] = g[1][..., None] * x[0]
            out.append(rows)
        if order > 1:
            second = np.empty(u.shape[:-1] + (n, n, n), dtype=complex)
            second[..., :n - 1, :n - 1, :] = g[0][..., None, None, None] * x[2]
            second[..., :n - 1, n - 1, :] = second[..., n - 1, :n - 1, :] = \
                g[1][..., None, None] * x[1]
            second[..., n - 1, n - 1, :] = g[2][..., None] * x[0]
            out.append(second)
        return out

    law = AngleLaw(lambda u: equivariant_angle(gamma, n, np.asarray(u)[..., -1]), exact=True)
    patch = ImmersionPatch.from_jets(sig, domain, jets, chart=chart, gamma=gamma, angle_law=law)
    # 64 profile points at two box points y (t by the chart's flip, which keeps the box):
    # the corner farthest from 0, and the least root |x_m| = sqrt(disc), per axis the far
    # end where eps_f eps_m > 0, else the point nearest 0; the box has a root if it has
    lo, hi = chart.box.T
    far = np.where(hi >= -lo, hi, lo)
    least = np.where(sig.eps[chart.free] * sig.eps[chart.solve_index] > 0.0, far,
                     np.clip(0.0, lo, hi))
    t = chart.center_coords + chart.flip * (np.stack([least, far]) - chart.center_coords)
    return _finite_frames(patch, np.column_stack([np.repeat(t, 64, axis=0),
                                                  np.tile(np.linspace(*gamma.interval, 64), 2)]),
                          ("gamma",))


def equivariant_angle(gamma: Curve, n: int, s) -> np.ndarray:
    """The Lagrangian angle arg(gamma'(s) gamma(s)^(n-1)) of the equivariant family,
    exact on the charts QuadricChart orients, broadcast over s."""
    g, dg = gamma.jets(s, 1)
    return np.angle(dg * g ** (n - 1))


def catenoid_curve(n: int, c: float, sector: int) -> Curve:
    """Polar branch rho = (c / sin(n phi))^(1/n) inside one angular sector.

    Along the branch Im(gamma^n) = c exactly, so the associated
    equivariant patch has constant Lagrangian angle.
    """
    if abs(c) ** (1.0 / n) < 1e-12:  # the least |gamma| on the branch, where |sin(n phi)| = 1
        raise FamilySpecError("the catenoid constant c must be nonzero, and |c|^(1/n) at "
                              "least 1e-12 for the curve to clear the origin", ("c",))
    if not 0 <= sector < 2 * n:
        raise FamilySpecError(f"sector must lie in [0, {2 * n})", ("sector",))
    if (1 if sector % 2 == 0 else -1) != np.sign(c):
        raise FamilySpecError(
            f"sector {sector} carries sin(n phi) of sign {(-1) ** sector}; "
            f"no branch exists there for c = {c}", ("sector", "c"))
    lo = sector * np.pi / n + SECTOR_MARGIN
    hi = (sector + 1) * np.pi / n - SECTOR_MARGIN
    if lo >= hi:
        raise FamilySpecError(f"sector too narrow for the margin {SECTOR_MARGIN}", ("sig.n",))

    def jets(phi, order):
        phi = np.asarray(phi, dtype=float)
        if order == 0:  # the flow calls values on large stacks: keep no factor alive
            return [(c / np.sin(n * phi)) ** (1.0 / n) * np.exp(1j * phi)]
        n_phi = n * phi
        sin_n = np.sin(n_phi)
        rho = (c / sin_n) ** (1.0 / n)
        cot = np.cos(n_phi) / sin_n
        turn = np.exp(1j * phi)
        drho = -rho * cot
        out = [rho * turn, (drho + 1j * rho) * turn]
        if order > 1:
            ddrho = rho * ((n + 1) * cot ** 2 + n)
            out.append((ddrho + 2j * drho - rho) * turn)
        return out

    return Curve(jets, (lo, hi))


def make_catenoid(spec: Catenoid) -> ImmersionPatch:
    curve = catenoid_curve(spec.sig.n, spec.c, spec.sector)
    try:
        return make_equivariant(Equivariant(
            sig=spec.sig, epsilon=spec.epsilon, gamma=curve,
            chart_center=spec.chart_center, chart_half_width=spec.chart_half_width))
    except FamilySpecError as exc:
        if exc.fields != ("gamma",):
            raise
        # c fixes the profile: at the largest |c| its frames overflow
        raise FamilySpecError(f"the profile of c = {spec.c:g}: {exc}", ("c",)) from exc


def make_evolving_quadric(spec: EvolvingQuadric) -> ImmersionPatch:
    sig = spec.sig
    M = np.asarray(spec.matrix, dtype=float)
    residual = check_self_adjoint(M, sig)
    if residual > SELF_ADJOINT_TOL:
        raise FamilySpecError(
            f"matrix is not <.,.>_p self-adjoint (residual {residual:.3e})", ("matrix",))
    if abs(np.linalg.det(M)) < 1e-12 * max(np.max(np.abs(M)) ** sig.n, 1e-300):
        raise FamilySpecError("matrix must be invertible", ("matrix",))
    try:  # the 1-norm of s M is largest at the ends of s_interval
        mat_exp_iMs(M, spec.s_interval)
    except DegenerateInput as exc:
        raise FamilySpecError(f"exp(i s M) fails at the ends of s_interval: {exc}",
                              ("matrix", "s_interval")) from exc
    if np.min(spec.r.jets(np.linspace(*spec.s_interval, 64), 0)[0]) <= 0.0:
        raise FamilySpecError("the radial profile must stay positive on s_interval", ("r",))
    center = (np.asarray(spec.chart_center, dtype=float)
              if spec.chart_center is not None else find_quadric_point(M, spec.c, sig))
    chart = QuadricChart(M, spec.c, sig, center, spec.chart_half_width)
    n = sig.n
    r = spec.r
    domain = np.vstack([chart.box, list(spec.s_interval)])

    def jets(u, order):
        u = np.asarray(u, dtype=float)
        t, s = u[..., :n - 1], u[..., n - 1]
        x = chart.jets(t, order)
        e = mat_exp_iMs(M, s)
        rj = [np.asarray(jet)[..., None] for jet in r.jets(s, order)]
        out = [rj[0] * np.einsum("...jk,...k->...j", e, x[0].astype(complex))]
        if order == 0:
            return out
        e_t = np.swapaxes(e, -1, -2)
        mx = x[0] @ M.T
        rows = np.empty(u.shape[:-1] + (n, n), dtype=complex)
        rows[..., :n - 1, :] = rj[0][..., None] * (x[1] @ e_t)
        rows[..., n - 1, :] = (e @ (rj[1] * x[0] + 1j * rj[0] * mx)[..., None])[..., 0]
        out.append(rows)
        if order > 1:
            last = rj[2] * x[0] + 2j * rj[1] * mx - rj[0] * (mx @ M.T)
            second = np.empty(u.shape[:-1] + (n, n, n), dtype=complex)
            second[..., :n - 1, :n - 1, :] = rj[0][..., None, None] * (x[2] @ e_t[..., None, :, :])
            second[..., :n - 1, n - 1, :] = second[..., n - 1, :n - 1, :] = \
                (rj[1][..., None] * x[1] + 1j * rj[0][..., None] * (x[1] @ M.T)) @ e_t
            second[..., n - 1, n - 1, :] = (e @ last[..., None])[..., 0]
            out.append(second)
        return out

    def law(u):
        u = np.asarray(u, dtype=float)
        return evolving_quadric_angle(spec, u[..., -1], chart.jets(u[..., :-1], 0)[0])

    patch = ImmersionPatch.from_jets(sig, domain, jets, chart=chart, r=r,
                                     angle_law=AngleLaw(law, exact=False))
    # the box corners may have no chart root: probe its center at both ends of s_interval
    return _finite_frames(patch, np.column_stack([np.tile(chart.center_coords, (2, 1)),
                                                  spec.s_interval]), ("r",))


def evolving_quadric_angle(spec: EvolvingQuadric, s, x):
    """Closed-form Lagrangian angle law of the evolving-quadric family, broadcast
    over s (...) and quadric points x (..., n).

    beta(s, x) = tr(M) s + arg(c r'/r + i |M x|_p^2) + pi/2, up to a
    chart-dependent constant fixed by orientation conventions.
    """
    M = np.asarray(spec.matrix, dtype=float)
    mx = np.asarray(x, dtype=float) @ M.T
    mx2 = metric(mx, mx, spec.sig)
    rv, rd = spec.r.jets(s, 1)
    ratio = spec.c * rd / rv
    if (np.hypot(ratio, mx2) < 1e-300).any():
        raise FamilySpecError("angle law undefined at a degenerate quadric point")
    return wrap_angle(np.trace(M) * s + np.arctan2(mx2, ratio) + np.pi / 2.0)


def make_product_null_curves(spec: ProductNullCurves) -> ImmersionPatch:
    sig = spec.sig
    if sig.n != 2:
        raise FamilySpecError("products of null curves are surfaces: n must be 2", ("sig.n",))
    plane = np.asarray(spec.plane, dtype=complex)
    try:
        props = plane_props(plane, sig)
    except DegenerateInput as exc:
        raise FamilySpecError(str(exc), ("plane",)) from exc
    if not props.totally_null:
        raise FamilySpecError("the carrier plane must be totally null", ("plane",))
    b0, b1 = plane

    def embed(coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        return coeffs[..., :1] * b0 + coeffs[..., 1:] * b1

    def jets(u, order):
        u = np.asarray(u, dtype=float)
        g1, g2 = spec.gamma1.jets(u[..., 0], order), spec.gamma2.jets(u[..., 1], order)
        out = [embed(g1[0]) + 1j * embed(g2[0])]
        if order > 0:
            out.append(np.stack([embed(g1[1]), 1j * embed(g2[1])], axis=-2))
        if order > 1:
            second = np.zeros(u.shape[:-1] + (2, 2, 2), dtype=complex)
            second[..., 0, 0, :] = embed(g1[2])
            second[..., 1, 1, :] = 1j * embed(g2[2])
            out.append(second)
        return out

    domain = np.array([list(spec.gamma1.interval), list(spec.gamma2.interval)])
    # a 12 x 12 grid; the frames degenerate where <gamma_1', J gamma_2'> vanishes
    u, v = (np.linspace(lo, hi, 12) for lo, hi in domain)
    return _finite_frames(ImmersionPatch.from_jets(sig, domain, jets),
                          np.column_stack([np.repeat(u, 12), np.tile(v, 12)]),
                          ("gamma1", "gamma2"))


def make_hopf(spec: Hopf) -> ImmersionPatch:
    """Doubly rotated sphere curve f(s, t) = (gamma_1 e^{it}, gamma_2 e^{it})."""
    sig = spec.sig
    if (sig.p, sig.n) != (0, 2):
        raise FamilySpecError("the hopf family lives in signature (0, 2)", ("sig",))
    gamma = spec.gamma
    lo, hi = gamma.interval
    ss = np.linspace(lo, hi, 64)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing curve fails the probe
        if np.max(np.abs(np.linalg.norm(gamma.jets(ss, 0)[0], axis=-1) - 1.0)) > 1e-9:
            raise FamilySpecError("the profile curve must lie on the unit sphere", ("gamma",))

    def jets(u, order):
        u = np.asarray(u, dtype=float)
        g = [np.asarray(jet) for jet in gamma.jets(u[..., 0], order)]
        phase = np.exp(1j * u[..., 1])[..., None]
        out = [g[0] * phase]
        if order > 0:
            out.append(np.stack([g[1] * phase, 1j * g[0] * phase], axis=-2))
        if order > 1:
            second = np.empty(u.shape[:-1] + (2, 2, 2), dtype=complex)
            second[..., 0, 0, :] = g[2] * phase
            second[..., 0, 1, :] = second[..., 1, 0, :] = 1j * g[1] * phase
            second[..., 1, 1, :] = -g[0] * phase
            out.append(second)
        return out

    domain = np.array([[lo, hi], [0.0, 2.0 * np.pi]])
    return _finite_frames(ImmersionPatch.from_jets(sig, domain, jets),
                          np.column_stack([ss, np.zeros_like(ss)]), ("gamma",))


GENERATORS = {
    FlatPlane: lambda spec: make_flat_patch(spec.sig),
    Equivariant: make_equivariant,
    Catenoid: make_catenoid,
    EvolvingQuadric: make_evolving_quadric,
    ProductNullCurves: make_product_null_curves,
    Hopf: make_hopf,
}


def build_family(spec) -> ImmersionPatch:
    """Dispatch a family specification to its generator."""
    if type(spec) not in GENERATORS:
        raise FamilySpecError(f"unknown family specification: {type(spec).__name__}")
    return GENERATORS[type(spec)](spec)
