"""Shared example patches and specifications for the test suite."""

import numpy as np
import pytest

from lagcal.core import NULL_PLANE_BASIS, Signature
from lagcal.families import (
    Catenoid,
    Curve,
    EvolvingQuadric,
    Equivariant,
    Hopf,
    ProductNullCurves,
    build_family,
)
from lagcal.immersion import ImmersionPatch, make_flat_patch, reparametrize

ROTATION_GENERATOR = np.array([[0.0, -1.0], [1.0, 0.0]])


def catenoid_combinations():
    """All (sig, epsilon) pairs with n in {2, 3}, p in {0, 1} and a nonempty quadric."""
    combos = []
    for n in (2, 3):
        for p in (0, 1):
            for eps in (1, -1):
                if eps == 1 and p == n:
                    continue
                if eps == -1 and p == 0:
                    continue
                combos.append((Signature(p, n), eps))
    return combos


def rotation_quadric_spec(c: float = 2.0, half_width: float = 0.6) -> EvolvingQuadric:
    """Minimal evolving quadric driven by the rotation generator, p = 1.

    The hyperbola 2 x1 x2 = c is charted around (e^t0, (c/2) e^-t0) with
    t0 = 0.8, keeping clear of the degenerate locus |M x|_p = 0 at t = 0.
    """
    t0 = 0.8
    center = np.array([np.exp(t0), (c / 2.0) * np.exp(-t0)])
    return EvolvingQuadric(
        sig=Signature(1, 2), matrix=ROTATION_GENERATOR, c=c, s_interval=(-0.35, 0.35),
        chart_center=center, chart_half_width=half_width)


def hyperbola_product_spec(c: float = 2.0) -> ProductNullCurves:
    """Product-of-null-curves picture of the rotation quadric example.

    In the basis (1, i), (i, 1) of the totally null plane x1 = y2,
    x2 = y1, the two branches have real coefficients
    (e^u / 2, e^-u / c) and (-e^v / c, -e^-v / 2).
    """
    g1 = Curve.exponential([0.5, 1.0 / c], [1.0, -1.0], (0.05, 1.5))
    g2 = Curve.exponential([-1.0 / c, -0.5], [1.0, -1.0], (-1.5, -0.05))
    return ProductNullCurves(sig=Signature(1, 2), plane=NULL_PLANE_BASIS,
                             gamma1=g1, gamma2=g2)


def traceless_diag_quadric_spec() -> EvolvingQuadric:
    """Minimal evolving quadric with M = diag(1, -1) in definite signature."""
    return EvolvingQuadric(
        sig=Signature(0, 2), matrix=np.diag([1.0, -1.0]), c=1.0, s_interval=(-0.4, 0.4),
        chart_center=np.array([1.0, 0.0]), chart_half_width=0.3)


def expanding_quadric_spec() -> EvolvingQuadric:
    """Non-minimal evolving quadric: M = identity, tr M = 2, r constant."""
    return EvolvingQuadric(
        sig=Signature(0, 2), matrix=np.eye(2), c=1.0, s_interval=(-0.4, 0.4),
        chart_center=np.array([0.0, 1.0]), chart_half_width=0.3)


def varying_profile_quadric_spec() -> EvolvingQuadric:
    """Evolving quadric with a genuinely varying radial profile."""
    return EvolvingQuadric(
        sig=Signature(0, 2), matrix=np.eye(2), c=1.0,
        r=Curve.exponential(1.0, 0.3), s_interval=(-0.4, 0.4),
        chart_center=np.array([0.0, 1.0]), chart_half_width=0.3)


def spiral_equivariant_spec(psi: float = 0.6) -> Equivariant:
    """Lorentzian equivariant patch with spiral profile |gamma'| = |gamma|."""
    rate = complex(np.cos(psi), np.sin(psi))
    return Equivariant(sig=Signature(1, 2), epsilon=1,
                       gamma=Curve.exponential(1.0, rate, (-0.5, 0.5)))


def circle_equivariant_spec(n: int = 2) -> Equivariant:
    return Equivariant(sig=Signature(0, n), epsilon=1, gamma=Curve.exponential(1.0, 1j, (0.1, 1.4)))


def line_equivariant_spec() -> Equivariant:
    """The non-minimal profile gamma(s) = 1 + i s in definite signature."""
    return Equivariant(sig=Signature(0, 2), epsilon=1,
                       gamma=Curve.line(1.0, 1.0j, (-0.8, 0.8)))


def small_circle_hopf_spec() -> Hopf:
    # (cos a e^{i k1 s}, sin a e^{i k2 s}) with a = pi/4, k1 = 1, k2 = 2
    return Hopf(sig=Signature(0, 2),
                gamma=Curve.exponential([np.cos(np.pi / 4), np.sin(np.pi / 4)], [1j, 2j],
                                        (0.0, 2.0 * np.pi)))


def great_circle_hopf_spec() -> Hopf:
    return Hopf(sig=Signature(0, 2), gamma=Curve.great_circle((0.1, 1.4)))


def spiral_lorentzian_surface(psi: float = 0.6) -> ImmersionPatch:
    """Conformal Lorentzian Lagrangian surface gamma(s) (sinh t, cosh t).

    With |gamma'| = |gamma| the coordinates (s, t) are conformal, so
    u = s + t, v = s - t are null; the angle varies unless the spiral
    is radial, making this the standard non-minimal null-coordinate
    test surface.
    """
    rate = complex(np.cos(psi), np.sin(psi))

    def jets(u, order):
        u = np.asarray(u, dtype=float)
        gamma, t = np.exp(rate * u[..., 0])[..., None], u[..., 1]
        x = np.stack([np.sinh(t), np.cosh(t)], axis=-1).astype(complex)
        out = [gamma * x]
        if order > 0:
            xd = np.stack([np.cosh(t), np.sinh(t)], axis=-1).astype(complex)
            out.append(np.stack([rate * gamma * x, gamma * xd], axis=-2))
        if order > 1:
            mixed = rate * gamma * xd
            out.append(np.stack([np.stack([rate * rate * gamma * x, mixed], axis=-2),
                                 np.stack([mixed, gamma * x], axis=-2)], axis=-3))
        return out

    return ImmersionPatch.from_jets(Signature(1, 2), [[-0.5, 0.5], [-0.6, 0.6]], jets)


def null_reparametrized_spiral(psi: float = 0.6) -> ImmersionPatch:
    """The spiral Lorentzian surface in null coordinates u = s + t, v = s - t."""
    base = spiral_lorentzian_surface(psi)
    a = np.array([[0.5, 0.5], [0.5, -0.5]])
    domain = [[-0.45, 0.45], [-0.45, 0.45]]
    return reparametrize(base, a, np.zeros(2), domain)


def lagrangian_family_catalog():
    """Named Lagrangian generator patches covering every family variant."""
    catalog = [
        ("flat(1,3)", make_flat_patch(Signature(1, 3))),
        ("equivariant-circle", build_family(circle_equivariant_spec())),
        ("equivariant-line", build_family(line_equivariant_spec())),
        ("equivariant-spiral", build_family(spiral_equivariant_spec())),
        ("quadric-rotation", build_family(rotation_quadric_spec())),
        ("quadric-traceless-diag", build_family(traceless_diag_quadric_spec())),
        ("quadric-expanding", build_family(expanding_quadric_spec())),
        ("quadric-varying-r", build_family(varying_profile_quadric_spec())),
        ("product-null", build_family(hyperbola_product_spec())),
        ("hopf-small", build_family(small_circle_hopf_spec())),
        ("hopf-great", build_family(great_circle_hopf_spec())),
    ]
    for sig, eps in catenoid_combinations():
        name = f"catenoid(p={sig.p},n={sig.n},eps={eps:+d})"
        catalog.append((name, build_family(Catenoid(sig=sig, epsilon=eps, c=1.0, sector=0))))
    return catalog


@pytest.fixture(scope="session")
def family_catalog():
    return lagrangian_family_catalog()
