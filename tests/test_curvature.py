"""Cross-validation of the curvature routes."""

import numpy as np
import pytest

from conftest import (
    circle_equivariant_spec,
    expanding_quadric_spec,
    hyperbola_product_spec,
    line_equivariant_spec,
    null_reparametrized_spiral,
    rotation_quadric_spec,
)
from lagcal.core import Signature, metric, wrap_angle
from lagcal.curvature import (
    BETA_STEP,
    NotLagrangianError,
    _solve_gram,
    _unwrap,
    angle_gradient,
    curvature_sample,
    mean_curvature_angle,
    mean_curvature_sff,
    minimality_residual,
    normal_projection,
    surface_H_null_coords,
)
from lagcal.families import Catenoid, Curve, Equivariant, build_family
from lagcal.immersion import (
    DegenerateFrame,
    ImmersionPatch,
    induced_metric,
    interior_samples,
    lagrangian_angle_at,
    make_flat_patch,
    tangent_frame,
)


def circle_patch():
    """Round unit circle in C^1: curvature vector -e^{is}."""
    sig = Signature(0, 1)

    def f(u):
        u = np.asarray(u, dtype=float)
        return np.exp(1j * u)

    def d1(u):
        return (1j * np.exp(1j * u))[..., None]

    def d2(u):
        return -np.exp(1j * u)[..., None, None]

    return ImmersionPatch(sig=sig, domain=[[0.0, 2.0 * np.pi]], f=f, d1=d1, d2=d2)


def test_flat_patch_curvature_vanishes():
    patch = make_flat_patch(Signature(1, 2))
    u = np.array([0.4, 0.6])
    assert np.linalg.norm(mean_curvature_angle(patch, u)) < 1e-10
    assert np.linalg.norm(mean_curvature_sff(patch, u)) < 1e-12


def test_circle_curvature_frozen_value():
    patch = circle_patch()
    for s in (0.3, 1.1, 2.9):
        u = np.array([s])
        expected = -np.exp(1j * s)
        assert np.allclose(mean_curvature_sff(patch, u), expected, atol=1e-12)
        assert np.allclose(mean_curvature_angle(patch, u), expected, atol=1e-8)


def test_angle_gradient_across_the_branch_cut():
    # beta = 2 s + pi/2 on the circle profile reaches pi at s = pi/4, so the
    # 5-point stencil along s straddles the cut of the principal branch
    patch = build_family(circle_equivariant_spec(n=2))
    u = np.array([0.1, np.pi / 4.0])
    h = BETA_STEP * patch.widths[1]
    below = lagrangian_angle_at(patch, u - [0.0, h])
    above = lagrangian_angle_at(patch, u + [0.0, h])
    assert below > 3.0 and above < -3.0
    assert np.allclose(angle_gradient(patch, u), [0.0, 2.0], atol=1e-8)


def test_stencil_lift_is_numpy_unwrap_to_the_bit():
    # 10^4 stencils of five principal angles: a third anywhere on the circle,
    # a third of small steps, a third of small steps straddling +-pi (where the
    # README catenoid's law sits), and differences of exactly +-pi
    rng = np.random.default_rng(27)
    anywhere = rng.uniform(-np.pi, np.pi, (3334, 5))
    walk = rng.uniform(-np.pi, np.pi, (3333, 1)) + np.cumsum(rng.normal(0, 0.3, (3333, 5)), axis=1)
    straddle = np.pi + rng.choice([-1.0, 1.0], (3333, 1)) * rng.uniform(0, 1e-3, (3333, 1)) \
        + np.cumsum(rng.normal(0, 1e-3, (3333, 5)), axis=1)
    stencils = np.vstack([anywhere, wrap_angle(walk), wrap_angle(straddle),
                          [[0.0, np.pi, 0.0, -np.pi, 0.0], [-np.pi / 2, np.pi / 2, -np.pi / 2,
                                                            np.pi, 0.0]]])
    assert len(stencils) >= 10 ** 4
    assert np.count_nonzero(np.abs(np.diff(stencils[6667:10000])) > np.pi) > 1000
    for betas in stencils:
        assert np.array(_unwrap(betas.tolist())).tobytes() == np.unwrap(betas).tobytes()


def test_two_routes_agree_on_every_family(family_catalog):
    rng = np.random.default_rng(0)
    for name, patch in family_catalog:
        worst = 0.0
        for u in interior_samples(patch, 25, rng, margin=0.08):
            sample = curvature_sample(patch, u)
            worst = max(worst, sample.discrepancy)
        assert worst < 1e-5, f"{name}: {worst:.2e}"


def test_line_profile_is_not_minimal_but_routes_agree():
    patch = build_family(line_equivariant_spec())
    rng = np.random.default_rng(1)
    norms = []
    for u in interior_samples(patch, 20, rng, margin=0.08):
        sample = curvature_sample(patch, u)
        assert sample.discrepancy < 1e-5
        norms.append(np.linalg.norm(sample.H_angle))
    assert max(norms) > 1e-2


# every (sig, epsilon) with 2 <= n <= 4 whose quadric <x, x>_p = epsilon is non-empty
NON_EMPTY_QUADRICS = [(Signature(p, n), eps) for n in (2, 3, 4) for p in range(n + 1)
                      for eps in (1, -1) if (p < n if eps == 1 else p > 0)]


@pytest.mark.parametrize("sig, epsilon", NON_EMPTY_QUADRICS,
                         ids=lambda v: f"{v.p}-{v.n}" if isinstance(v, Signature) else f"{v:+d}")
def test_equivariant_mean_curvature_closed_form(sig, epsilon):
    # f = gamma(s) x(t): |H| = |beta'| |x| / (n |gamma'|) with
    # beta' = Im(gamma''/gamma' + (n-1) gamma'/gamma), on a random smooth
    # spline profile, and H = 0 with beta' = 0 on the catenoid
    n = sig.n
    rng = np.random.default_rng(100 * n + 10 * sig.p + epsilon)
    s = np.linspace(-0.5, 0.5, 9)
    # gamma = exp(phi), phi a random cubic whose turning rate Im phi' near
    # [1, 2] keeps beta' = Im(phi''/phi' + n phi') away from zero
    rate = complex(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.0))
    coef = 0.1 * rng.normal(size=(2, 2)) @ np.array([1.0, 1j])
    values = np.exp(rate * s + coef[0] * s ** 2 + coef[1] * s ** 3
                    + 1j * rng.uniform(0.0, 2.0 * np.pi))
    profile = build_family(Equivariant(sig=sig, epsilon=epsilon,
                                       gamma=Curve.from_samples(s, values)))
    catenoid = build_family(Catenoid(sig=sig, epsilon=epsilon, c=1.0, sector=0))
    for patch, minimal in ((profile, False), (catenoid, True)):
        us = interior_samples(patch, 20, rng)
        g, dg, ddg = patch.meta["gamma"].jets(us[:, -1], 2)
        x = patch.meta["chart"].jets(us[:, :-1], 0)[0]
        beta_d = np.imag(ddg / dg + (n - 1) * dg / g)
        closed = np.abs(beta_d) * np.linalg.norm(x, axis=-1) / (n * np.abs(dg))
        h = np.array([np.linalg.norm(mean_curvature_sff(patch, u)) for u in us])
        if minimal:
            assert max(np.max(closed), np.max(h)) <= 1e-10
        else:
            assert np.min(closed) > 0.1
            assert np.max(np.abs(h - closed) / closed) <= 1e-8


def test_mean_curvature_is_normal(family_catalog):
    rng = np.random.default_rng(2)
    for name, patch in family_catalog:
        for u in interior_samples(patch, 10, rng, margin=0.08):
            frame = tangent_frame(patch, u)
            h = mean_curvature_sff(patch, u)
            h_norm = np.linalg.norm(h)
            if h_norm < 1e-12:
                continue
            scale = h_norm * np.linalg.norm(frame, axis=1)
            pair = np.array([metric(h, x, patch.sig) for x in frame])
            assert np.max(np.abs(pair) / scale) < 1e-7, name


def test_j_of_h_is_tangent_on_lagrangian_patches(family_catalog):
    # J exchanges tangent and normal bundles on a Lagrangian patch, so
    # J H must be tangential: projecting it on the normal space kills it.
    rng = np.random.default_rng(3)
    for name, patch in family_catalog:
        for u in interior_samples(patch, 6, rng, margin=0.08):
            frame = tangent_frame(patch, u)
            g = induced_metric(patch, u)
            h = mean_curvature_angle(patch, u)
            if np.linalg.norm(h) < 1e-12:
                continue
            residual = normal_projection(1j * h, frame, g, patch.sig)
            assert np.linalg.norm(residual) < 1e-7 * max(1.0, np.linalg.norm(1j * h)), name


def test_angle_route_requires_lagrangian():
    sig = Signature(0, 2)

    def f(u):
        u = np.asarray(u, dtype=float)
        return np.stack([u[..., 0] + 1j * u[..., 1],
                         u[..., 1] + 0.5j * u[..., 0]], axis=-1)

    patch = ImmersionPatch(sig=sig, domain=[[0, 1], [0, 1]], f=f)
    with pytest.raises(NotLagrangianError):
        mean_curvature_angle(patch, np.array([0.5, 0.5]))


def test_null_coordinate_formula_on_product_patch():
    patch = build_family(hyperbola_product_spec())
    rng = np.random.default_rng(4)
    for u in interior_samples(patch, 10, rng, margin=0.08):
        h = surface_H_null_coords(patch, u)
        assert np.linalg.norm(h) < 1e-12
        assert np.linalg.norm(mean_curvature_sff(patch, u)) < 1e-12


def test_null_coordinate_formula_matches_sff_on_nonminimal_surface():
    patch = null_reparametrized_spiral(0.6)
    rng = np.random.default_rng(5)
    worst = 0.0
    h_norms = []
    for u in interior_samples(patch, 20, rng, margin=0.08):
        h_null = surface_H_null_coords(patch, u)
        h_sff = mean_curvature_sff(patch, u)
        worst = max(worst, float(np.linalg.norm(h_null - h_sff)))
        h_norms.append(np.linalg.norm(h_sff))
    assert worst < 1e-5
    assert max(h_norms) > 1e-2


def test_null_coordinate_formula_rejects_non_null_charts():
    patch = build_family(expanding_quadric_spec())
    with pytest.raises(NotLagrangianError):
        surface_H_null_coords(patch, np.array([0.0, 0.0]))


def test_minimality_residuals():
    minimal = [
        build_family(Catenoid(sig=Signature(0, 2), epsilon=1, c=1.0, sector=0)),
        build_family(rotation_quadric_spec()),
        build_family(hyperbola_product_spec()),
    ]
    for patch in minimal:
        residual = minimality_residual(patch, interior_samples(patch, 200,
                                                               np.random.default_rng(6)))
        assert isinstance(residual, float)
        assert residual < 1e-6

    patch = build_family(expanding_quadric_spec())
    assert minimality_residual(patch, interior_samples(patch, 200,
                                                       np.random.default_rng(7))) > 0.1


def test_gram_solve_judges_the_scaled_determinant():
    # |det g| < 1e-12 scale^n overflowed in scale^n; |det(g / scale)| does not
    g = 1e200 * np.eye(2)
    with np.errstate(all="raise"):
        coeffs = _solve_gram(g, np.array([1e200, -2e200]))
    assert np.array_equal(coeffs, [1.0, -2.0])
    with pytest.raises(DegenerateFrame):
        _solve_gram(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]), np.ones(2))
