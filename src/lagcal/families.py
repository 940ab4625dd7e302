"""Generators for the explicit Lagrangian families.

Every generator returns an :class:`~lagcal.immersion.ImmersionPatch`
with closed-form first and second jets, so defect and curvature tests
run at analytic accuracy:

* flat plane             f(u) = sum u_j e_j
* equivariant            f(t, s) = gamma(s) x(t), x on the quadric <x,x>_p = eps
* catenoid               equivariant with the polar curve Im gamma^n = c
* evolving quadric       f(t, s) = r(s) exp(i M s) x(t), M self-adjoint,
                         x on <x, M x>_p = c
* product of null curves f(u, v) = gamma_1(u) + J gamma_2(v) inside a
                         totally null plane P and J P
* circle-rotation torus  f(s, t) = (gamma_1(s) e^{it}, gamma_2(s) e^{it}),
                         gamma on the unit 3-sphere

Quadric hypersurfaces are charted in graph coordinates: one coordinate
is solved from the quadratic equation, the rest stay free, and the jets
come from implicit differentiation.  Charts are oriented so that the
real determinant of (chart tangents, position) is positive, which pins
the sign conventions of the Lagrangian angle formulas.
"""

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GeometryError,
    DimensionMismatch,
    Signature,
    matrix_exp,
    plane_props,
    wrap_angle,
)
from .immersion import ImmersionPatch, make_flat_patch
from .spline import cubic_basis, not_a_knot

SELF_ADJOINT_TOL = 1e-10
CHART_HALF_WIDTH = 0.35
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


def sample_quadric(M, c: float, sig: Signature, count: int, seed) -> np.ndarray:
    """Points on <x, M x>_p = c by sphere rejection with radial rescaling."""
    if c == 0.0:
        raise FamilySpecError("sampling the cone c = 0 is unsupported; use explicit linear pieces",
                              ("c",))
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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


@dataclass(frozen=True, eq=False)
class QuadricChart:
    """Graph-coordinate chart of { x : <x, M x>_p = c } around a center point.

    value() solves the defining quadratic for the coordinate solve_index
    and broadcasts over stacked chart coordinates (..., n-1).  jacobian()
    and hessian() take points x already solved by value(), shape (..., n),
    broadcast the same way and never solve again; they come from implicit
    differentiation of the defining quadratic.  The signed form
    q = diag(eps) M and its blocks are built once, with the chart.  The
    chart is oriented: the stacked real determinant det(tangents, x) is
    positive at the center.
    """

    M: np.ndarray
    c: float
    sig: Signature
    center: np.ndarray
    solve_index: int
    branch: float
    box: np.ndarray
    flip: np.ndarray
    q: np.ndarray = field(init=False, repr=False)
    free: np.ndarray = field(init=False, repr=False)
    center_coords: np.ndarray = field(init=False, repr=False)
    _q_mf: np.ndarray = field(init=False, repr=False)
    _q_ff: np.ndarray = field(init=False, repr=False)
    _q_mm: float = field(init=False, repr=False)
    _tangents: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, m = self.sig.n, self.solve_index
        q = self.sig.eps[:, None] * self.M
        free = np.delete(np.arange(n), m)
        # Tangent rows without their solved column: flip_a e_{free[a]}.
        tangents = np.zeros((n - 1, n))
        tangents[np.arange(n - 1), free] = self.flip
        constants = {
            "q": q,
            "free": free,
            "center_coords": self.center[free],
            "_q_mf": q[m, free],
            "_q_ff": q[np.ix_(free, free)],
            "_q_mm": q[m, m],
            "_tangents": tangents,
        }
        for name, value in constants.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def _free_to_point(self, y) -> np.ndarray:
        m = self.solve_index
        y = np.asarray(y, dtype=float)
        a = self._q_mm
        b = y @ self._q_mf
        cc = np.einsum("...i,ij,...j->...", y, self._q_ff, y) - self.c
        x = np.empty(y.shape[:-1] + (self.sig.n,))
        x[..., self.free] = y
        if abs(a) > 1e-13:
            disc = b * b - a * cc
            if (disc <= 0.0).any():
                raise FamilySpecError("quadric chart left its validity region (no real root)",
                                      ("chart_center", "chart_half_width"))
            x[..., m] = (-b + self.branch * np.sqrt(disc)) / a
        else:
            if (np.abs(b) < 1e-13).any():
                raise FamilySpecError("quadric chart degenerates (vanishing gradient)")
            x[..., m] = -cc / (2.0 * b)
        return x

    def _to_free(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.center_coords + self.flip * (t - self.center_coords)

    def value(self, t) -> np.ndarray:
        """Points x(t) on the quadric, shape (..., n), from one root solve."""
        return self._free_to_point(self._to_free(t))

    def jacobian(self, x) -> np.ndarray:
        """Rows dx/dt_a at solved points x, shape (..., n-1, n)."""
        grad = 2.0 * (x @ self.q.T)
        m = self.solve_index
        gm = grad[..., m]
        scale = np.sqrt((grad * grad).sum(axis=-1))
        if (np.abs(gm) < 1e-12 * np.maximum(scale, 1e-300)).any():
            raise FamilySpecError("quadric chart degenerates (vanishing gradient component)")
        jac = np.empty(x.shape[:-1] + self._tangents.shape)
        jac[...] = self._tangents
        jac[..., m] = self.flip * (-grad[..., self.free] / gm[..., None])
        return jac

    def hessian(self, x, jac) -> np.ndarray:
        """d^2 x / dt_a dt_b at solved points x and their jacobian, shape (..., n-1, n-1, n)."""
        m, free = self.solve_index, self.free
        qx = x @ self.q.T
        qv = jac @ self.q.T  # row b is q @ (dx/dt_b)
        qx_m = qx[..., m, None, None]
        num = qv[..., free] * qx_m - qx[..., None, free] * qv[..., m, None]
        out = np.zeros(jac.shape[:-1] + jac.shape[-2:])
        out[..., m] = np.swapaxes(-self.flip * num / qx_m ** 2, -1, -2)
        return out


def quadric_chart(M, c: float, sig: Signature, center,
                  half_width: float = CHART_HALF_WIDTH) -> QuadricChart:
    """Build an oriented graph chart of the quadric around a center point."""
    M = np.asarray(M, dtype=float)
    center = np.asarray(center, dtype=float)
    if center.shape != (sig.n,):
        raise DimensionMismatch(f"center must have shape ({sig.n},)")
    q = sig.eps[:, None] * M
    residual = float(quadric_rhs(M, sig, center)) - c
    scale = max(abs(c), float(np.dot(center, center)), 1.0)
    if abs(residual) > 1e-9 * scale:
        raise FamilySpecError(f"chart center misses the quadric by {residual:.3e}",
                              ("chart_center",))
    grad = 2.0 * q @ center
    m = int(np.argmax(np.abs(grad)))
    if abs(grad[m]) < 1e-9 * max(np.linalg.norm(center), 1.0):
        raise FamilySpecError("chart center has vanishing quadric gradient", ("chart_center",))
    free = np.array([j for j in range(sig.n) if j != m])

    a = q[m, m]
    branch = 1.0
    if abs(a) > 1e-13:
        b = center[free] @ q[m, free]
        branch = 1.0 if a * center[m] + b >= 0.0 else -1.0

    box = np.stack([center[free] - half_width, center[free] + half_width], axis=-1)
    chart = QuadricChart(M=M, c=float(c), sig=sig, center=center, solve_index=m,
                         branch=branch, box=box, flip=np.ones(sig.n - 1))
    # Orientation: det(tangent rows, position) > 0 at the center.
    det = np.linalg.det(np.vstack([chart.jacobian(chart.value(chart.center_coords)), center]))
    if abs(det) < 1e-12:
        raise FamilySpecError("chart orientation is undefined (position tangent to quadric)",
                              ("chart_center",))
    if det < 0.0:
        flip = np.ones(sig.n - 1)
        flip[0] = -1.0
        chart = QuadricChart(M=M, c=float(c), sig=sig, center=center, solve_index=m,
                             branch=branch, box=box, flip=flip)
    return chart


def find_quadric_point(M, c: float, sig: Signature) -> np.ndarray:
    """Deterministic point on <x, M x>_p = c avoiding degenerate loci.

    Prefers points where the hypersurface is non-degenerate, i.e.
    |<M x, M x>_p| is bounded away from zero.
    """
    for x in sample_quadric(M, c, sig, 64, seed=20240):
        mx = np.asarray(M, dtype=float) @ x
        if abs(float(np.sum(sig.eps * mx * mx))) > 0.1 * float(mx @ mx):
            return x
    raise FamilySpecError("could not locate a non-degenerate quadric point",
                          ("sig", "matrix", "c"))


# --- family specifications ----------------------------------------------------

@dataclass(frozen=True, eq=False)
class FlatPlane:
    sig: Signature


@dataclass(frozen=True, eq=False)
class Equivariant:
    sig: Signature
    epsilon: int
    gamma: Curve
    chart_center: np.ndarray | None = None
    chart_half_width: float = CHART_HALF_WIDTH


@dataclass(frozen=True, eq=False)
class Catenoid:
    sig: Signature
    epsilon: int
    c: float
    sector: int
    chart_center: np.ndarray | None = None
    chart_half_width: float = CHART_HALF_WIDTH


@dataclass(frozen=True, eq=False)
class EvolvingQuadric:
    sig: Signature
    matrix: np.ndarray
    c: float
    r: Curve = field(default_factory=lambda: Curve.exponential(1.0, 0.0))
    s_interval: tuple[float, float] = (-0.4, 0.4)
    chart_center: np.ndarray | None = None
    chart_half_width: float = CHART_HALF_WIDTH


@dataclass(frozen=True, eq=False)
class ProductNullCurves:
    sig: Signature
    plane: np.ndarray
    gamma1: Curve
    gamma2: Curve


@dataclass(frozen=True, eq=False)
class Hopf:
    gamma: Curve


# --- generators ----------------------------------------------------------------

def _equivariant_patch(sig: Signature, gamma: Curve, chart: QuadricChart,
                       meta: dict) -> ImmersionPatch:
    """Common assembly for gamma(s) * x(t) patches (chart axes first, s last)."""
    n = sig.n
    lo, hi = gamma.interval
    domain = np.vstack([chart.box, [lo, hi]])

    def f(u):
        u = np.asarray(u, dtype=float)
        t, s = u[..., :n - 1], u[..., n - 1]
        x = chart.value(t)
        return np.asarray(gamma.jets(s, 0)[0])[..., None] * x

    def d1(u):
        t, s = u[..., :n - 1], u[..., n - 1]
        g, dg = map(np.asarray, gamma.jets(s, 1))
        x = chart.value(t)
        rows = np.empty(u.shape[:-1] + (n, n), dtype=complex)
        rows[..., :n - 1, :] = g[..., None, None] * chart.jacobian(x)
        rows[..., n - 1, :] = dg[..., None] * x
        return rows

    def d2(u):
        t, s = u[..., :n - 1], u[..., n - 1]
        g, dg, ddg = map(np.asarray, gamma.jets(s, 2))
        g, dg, ddg = g[..., None, None, None], dg[..., None, None], ddg[..., None]
        x = chart.value(t)
        jac = chart.jacobian(x)
        out = np.empty(u.shape[:-1] + (n, n, n), dtype=complex)
        out[..., :n - 1, :n - 1, :] = g * chart.hessian(x, jac)
        out[..., :n - 1, n - 1, :] = dg * jac
        out[..., n - 1, :n - 1, :] = dg * jac
        out[..., n - 1, n - 1, :] = ddg * x
        return out

    return ImmersionPatch(sig=sig, domain=domain, f=f, d1=d1, d2=d2, meta=meta)


def make_equivariant(spec: Equivariant) -> ImmersionPatch:
    sig = spec.sig
    if spec.epsilon not in (-1, 1):
        raise FamilySpecError("epsilon must be +1 or -1", ("epsilon",))
    if spec.epsilon == 1 and sig.p == sig.n:
        raise FamilySpecError("the quadric <x,x>_p = 1 is empty for p = n", ("sig", "epsilon"))
    if spec.epsilon == -1 and sig.p == 0:
        raise FamilySpecError("the quadric <x,x>_p = -1 is empty for p = 0", ("sig.p", "epsilon"))
    lo, hi = spec.gamma.interval
    samples = np.asarray(spec.gamma.jets(np.linspace(lo, hi, 64), 0)[0])
    if np.min(np.abs(samples)) < 1e-12:
        raise FamilySpecError("the profile curve must avoid the origin", ("gamma",))
    if spec.chart_center is not None:
        center = np.asarray(spec.chart_center, dtype=float)
    else:
        center = np.zeros(sig.n)
        center[0 if spec.epsilon == -1 else sig.n - 1] = 1.0
    chart = quadric_chart(np.eye(sig.n), float(spec.epsilon), sig, center,
                          spec.chart_half_width)
    meta = {"family": "equivariant", "epsilon": spec.epsilon, "chart": chart,
            "gamma": spec.gamma}
    return _equivariant_patch(sig, spec.gamma, chart, meta)


def catenoid_curve(n: int, c: float, sector: int) -> Curve:
    """Polar branch rho = (c / sin(n phi))^(1/n) inside one angular sector.

    Along the branch Im(gamma^n) = c exactly, so the associated
    equivariant patch has constant Lagrangian angle.
    """
    if c == 0.0:
        raise FamilySpecError("the catenoid constant c must be nonzero", ("c",))
    if not 0 <= sector < 2 * n:
        raise FamilySpecError(f"sector must lie in [0, {2 * n})", ("sector", "sig.n"))
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
        sin_n = np.sin(n * phi)
        rho = (c / sin_n) ** (1.0 / n)
        cot = np.cos(n * phi) / sin_n
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
    patch = make_equivariant(Equivariant(
        sig=spec.sig, epsilon=spec.epsilon, gamma=curve,
        chart_center=spec.chart_center, chart_half_width=spec.chart_half_width))
    patch.meta.update({"family": "catenoid", "c": spec.c, "sector": spec.sector})
    return patch


def make_evolving_quadric(spec: EvolvingQuadric) -> ImmersionPatch:
    sig = spec.sig
    M = np.asarray(spec.matrix, dtype=float)
    residual = check_self_adjoint(M, sig)
    if residual > SELF_ADJOINT_TOL:
        raise FamilySpecError(
            f"matrix is not <.,.>_p self-adjoint (residual {residual:.3e})")
    if abs(np.linalg.det(M)) < 1e-12 * max(np.max(np.abs(M)) ** sig.n, 1e-300):
        raise FamilySpecError("matrix must be invertible", ("matrix",))
    if np.min(spec.r.jets(np.linspace(*spec.s_interval, 64), 0)[0]) <= 0.0:
        raise FamilySpecError("the radial profile must stay positive on s_interval", ("r",))
    center = (np.asarray(spec.chart_center, dtype=float)
              if spec.chart_center is not None else find_quadric_point(M, spec.c, sig))
    chart = quadric_chart(M, spec.c, sig, center, spec.chart_half_width)
    n = sig.n
    r = spec.r
    domain = np.vstack([chart.box, list(spec.s_interval)])

    def f(u):
        u = np.asarray(u, dtype=float)
        t, s = u[..., :n - 1], u[..., n - 1]
        x = chart.value(t)
        rx = np.einsum("...jk,...k->...j", mat_exp_iMs(M, s), x.astype(complex))
        return np.asarray(r.jets(s, 0)[0])[..., None] * rx

    def d1(u):
        t, s = u[..., :n - 1], u[..., n - 1]
        x = chart.value(t)
        e = mat_exp_iMs(M, s)
        rv, rd = (np.asarray(jet)[..., None] for jet in r.jets(s, 1))
        rows = np.empty(u.shape[:-1] + (n, n), dtype=complex)
        rows[..., :n - 1, :] = rv[..., None] * (chart.jacobian(x) @ np.swapaxes(e, -1, -2))
        rows[..., n - 1, :] = (e @ (rd * x + 1j * rv * (x @ M.T))[..., None])[..., 0]
        return rows

    def d2(u):
        t, s = u[..., :n - 1], u[..., n - 1]
        x = chart.value(t)
        jac = chart.jacobian(x)
        e = mat_exp_iMs(M, s)
        e_t = np.swapaxes(e, -1, -2)
        rv, rd, rdd = (np.asarray(jet)[..., None] for jet in r.jets(s, 2))
        mx = x @ M.T
        last = rdd * x + 2j * rd * mx - rv * (mx @ M.T)
        out = np.empty(u.shape[:-1] + (n, n, n), dtype=complex)
        out[..., :n - 1, :n - 1, :] = rv[..., None, None] * (chart.hessian(x, jac)
                                                            @ e_t[..., None, :, :])
        mixed = (rd[..., None] * jac + 1j * rv[..., None] * (jac @ M.T)) @ e_t
        out[..., :n - 1, n - 1, :] = mixed
        out[..., n - 1, :n - 1, :] = mixed
        out[..., n - 1, n - 1, :] = (e @ last[..., None])[..., 0]
        return out

    meta = {"family": "evolving-quadric", "matrix": M, "c": spec.c, "chart": chart,
            "r": r}
    return ImmersionPatch(sig=sig, domain=domain, f=f, d1=d1, d2=d2, meta=meta)


def evolving_quadric_angle(spec: EvolvingQuadric, s: float, x) -> float:
    """Closed-form Lagrangian angle law of the evolving-quadric family.

    beta(s, x) = tr(M) s + arg(c r'/r + i |M x|_p^2) + pi/2, up to a
    chart-dependent constant fixed by orientation conventions.
    """
    M = np.asarray(spec.matrix, dtype=float)
    x = np.asarray(x, dtype=float)
    mx = M @ x
    mx2 = float(np.sum(spec.sig.eps * mx * mx))
    rv, rd = map(float, spec.r.jets(s, 1))
    inner = complex(spec.c * rd / rv, mx2)
    if abs(inner) < 1e-300:
        raise FamilySpecError("angle law undefined at a degenerate quadric point")
    return float(wrap_angle(np.trace(M) * s + np.angle(inner) + np.pi / 2.0))


def make_product_null_curves(spec: ProductNullCurves) -> ImmersionPatch:
    sig = spec.sig
    if sig.n != 2:
        raise FamilySpecError("products of null curves are surfaces: n must be 2", ("sig.n",))
    plane = np.asarray(spec.plane, dtype=complex)
    props = plane_props(plane, sig)
    if not props.totally_null:
        raise FamilySpecError("the carrier plane must be totally null", ("plane",))
    b0, b1 = plane

    def embed(coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        return coeffs[..., :1] * b0 + coeffs[..., 1:] * b1

    def f(u):
        u = np.asarray(u, dtype=float)
        return (embed(spec.gamma1.jets(u[..., 0], 0)[0])
                + 1j * embed(spec.gamma2.jets(u[..., 1], 0)[0]))

    def d1(u):
        return np.stack([embed(spec.gamma1.jets(u[..., 0], 1)[1]),
                         1j * embed(spec.gamma2.jets(u[..., 1], 1)[1])], axis=-2)

    def d2(u):
        out = np.zeros(u.shape[:-1] + (2, 2, 2), dtype=complex)
        out[..., 0, 0, :] = embed(spec.gamma1.jets(u[..., 0], 2)[2])
        out[..., 1, 1, :] = 1j * embed(spec.gamma2.jets(u[..., 1], 2)[2])
        return out

    domain = np.array([list(spec.gamma1.interval), list(spec.gamma2.interval)])
    meta = {"family": "product-null-curves", "plane": plane}

    # Sampled non-degeneracy of the cross pairing <gamma_1', J gamma_2'>.
    du = embed(spec.gamma1.jets(np.linspace(*spec.gamma1.interval, 12), 1)[1])[:, None, :]
    dv = embed(spec.gamma2.jets(np.linspace(*spec.gamma2.interval, 12), 1)[1])[None, :, :]
    pairings = np.sum(sig.eps * du * np.conj(1j * dv), axis=-1).real
    norms = np.linalg.norm(du, axis=-1) * np.linalg.norm(dv, axis=-1)
    meta["min_cross_pairing"] = float(np.min(np.abs(pairings) / np.maximum(norms, 1e-300)))
    if meta["min_cross_pairing"] < 1e-8:
        meta["degenerate_pairing_warning"] = True

    return ImmersionPatch(sig=sig, domain=domain, f=f, d1=d1, d2=d2, meta=meta)


def make_hopf(spec: Hopf) -> ImmersionPatch:
    """Doubly rotated sphere curve f(s, t) = (gamma_1 e^{it}, gamma_2 e^{it})."""
    sig = Signature(0, 2)
    gamma = spec.gamma
    lo, hi = gamma.interval
    ss = np.linspace(lo, hi, 64)
    vals, ders = map(np.asarray, gamma.jets(ss, 1))
    norms = np.linalg.norm(vals, axis=-1)
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        raise FamilySpecError(
            "the profile curve must lie on the unit sphere |gamma| = 1", ("gamma",))
    pairing = np.sum((ders * np.conj(1j * vals)), axis=-1).real
    speed2 = np.sum(np.abs(ders) ** 2, axis=-1)
    det_g = speed2 - pairing ** 2
    if np.min(np.abs(det_g)) < 1e-10 * max(np.max(speed2), 1.0):
        raise FamilySpecError(
            "degenerate immersion: the curve follows the circle action", ("gamma",))

    def f(u):
        u = np.asarray(u, dtype=float)
        s, t = u[..., 0], u[..., 1]
        return np.asarray(gamma.jets(s, 0)[0]) * np.exp(1j * t)[..., None]

    def d1(u):
        s, t = u[..., 0], u[..., 1]
        g, dg = map(np.asarray, gamma.jets(s, 1))
        phase = np.exp(1j * t)[..., None]
        return np.stack([dg * phase, 1j * g * phase], axis=-2)

    def d2(u):
        s, t = u[..., 0], u[..., 1]
        g, dg, ddg = map(np.asarray, gamma.jets(s, 2))
        phase = np.exp(1j * t)[..., None]
        out = np.empty(u.shape[:-1] + (2, 2, 2), dtype=complex)
        out[..., 0, 0, :] = ddg * phase
        out[..., 0, 1, :] = out[..., 1, 0, :] = 1j * dg * phase
        out[..., 1, 1, :] = -g * phase
        return out

    domain = np.array([[lo, hi], [0.0, 2.0 * np.pi]])
    meta = {"family": "hopf", "min_circle_pairing": float(np.min(np.abs(pairing)))}
    if meta["min_circle_pairing"] < 1e-8:
        meta["tangential_circle_pairing_warning"] = True
    return ImmersionPatch(sig=sig, domain=domain, f=f, d1=d1, d2=d2, meta=meta)


def build_family(spec) -> ImmersionPatch:
    """Dispatch a family specification to its generator."""
    if isinstance(spec, FlatPlane):
        return make_flat_patch(spec.sig)
    if isinstance(spec, Equivariant):
        return make_equivariant(spec)
    if isinstance(spec, Catenoid):
        return make_catenoid(spec)
    if isinstance(spec, EvolvingQuadric):
        return make_evolving_quadric(spec)
    if isinstance(spec, ProductNullCurves):
        return make_product_null_curves(spec)
    if isinstance(spec, Hopf):
        return make_hopf(spec)
    raise FamilySpecError(f"unknown family specification: {type(spec).__name__}")
