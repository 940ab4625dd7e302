"""Family generators: charts, sampling, matrix exponential, angle laws."""

import dataclasses
import functools

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from conftest import (
    ROTATION_GENERATOR,
    catenoid_combinations,
    circle_equivariant_spec,
    expanding_quadric_spec,
    hyperbola_product_spec,
    line_equivariant_spec,
    null_reparametrized_spiral,
    rotation_quadric_spec,
    small_circle_hopf_spec,
    spiral_lorentzian_surface,
    varying_profile_quadric_spec,
)
from lagcal.calibration import PerturbationSpec, hamiltonian_perturb
from lagcal.core import (
    Signature,
    apply_J,
    circ_dist,
    circ_spread,
    frame_quantities,
    from_components,
    herm_form,
    metric,
    plane_props,
    real_components,
    spans_equal,
    special_orthogonal_sample,
    wrap_angle,
)
from lagcal.families import (
    Catenoid,
    Curve,
    Equivariant,
    EvolvingQuadric,
    FamilySpecError,
    Hopf,
    ProductNullCurves,
    QuadricChart,
    build_family,
    catenoid_curve,
    check_self_adjoint,
    evolving_quadric_angle,
    find_quadric_point,
    mat_exp_iMs,
    quadric_rhs,
    sample_quadric,
)
from lagcal.immersion import (
    ImmersionPatch,
    induced_metric,
    interior_samples,
    lagrangian_angle_at,
    lagrangian_defect,
    make_flat_patch,
    patch_volume,
    reparametrize,
    second_derivatives,
    tangent_frame,
)

SIG12 = Signature(1, 2)
SIG13 = Signature(1, 3)
# diag(eps) S with S symmetric is <.,.>_p self-adjoint; its signed form q = S
# couples every coordinate, unlike the diagonal forms of the equivariant charts.
COUPLED_M13 = SIG13.eps[:, None] * np.array([[1.0, 0.3, 0.0],
                                              [0.3, 2.0, 0.5],
                                              [0.0, 0.5, 1.5]])


# --- matrix exponential and self-adjointness ----------------------------------

def test_mat_exp_identity_matrix():
    out = mat_exp_iMs(np.eye(3), 0.7)
    assert np.allclose(out, np.exp(0.7j) * np.eye(3), atol=1e-13)


def test_mat_exp_rotation_generator_frozen():
    s = 0.9
    out = mat_exp_iMs(ROTATION_GENERATOR, s)
    expected = np.array([[np.cosh(s), -1j * np.sinh(s)],
                         [1j * np.sinh(s), np.cosh(s)]])
    assert np.allclose(out, expected, atol=1e-13)


def test_mat_exp_group_law_and_time_zero():
    m = np.array([[0.3, -1.2, 0.0], [1.2, 0.1, 0.4], [0.0, 0.4, -0.4]])
    assert np.allclose(mat_exp_iMs(m, 0.0), np.eye(3), atol=1e-14)
    a, b = 0.37, -0.81
    assert np.allclose(mat_exp_iMs(m, a + b), mat_exp_iMs(m, a) @ mat_exp_iMs(m, b),
                       atol=1e-10)


def test_mat_exp_preserves_form_for_self_adjoint_matrix():
    sig = SIG12
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert check_self_adjoint(m, sig) == 0.0
    u = mat_exp_iMs(m, 0.63)
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert herm_form(u @ z, u @ w, sig) == pytest.approx(herm_form(z, w, sig), abs=1e-10)


def test_check_self_adjoint_detects_asymmetry():
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert check_self_adjoint(m, Signature(0, 2)) == pytest.approx(2.0)


# --- quadric sampling and charts ------------------------------------------------

def test_sample_quadric_unit_sphere():
    pts = sample_quadric(np.eye(3), 1.0, Signature(0, 3), 50, seed=1)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-10)


def test_sample_quadric_rotation_hyperbola():
    pts = sample_quadric(ROTATION_GENERATOR, 2.0, SIG12, 50, seed=2)
    assert np.allclose(2.0 * pts[:, 0] * pts[:, 1], 2.0, atol=1e-10)
    assert np.allclose(quadric_rhs(ROTATION_GENERATOR, SIG12, pts), 2.0, atol=1e-10)


def test_sample_quadric_rejects_cone():
    with pytest.raises(FamilySpecError):
        sample_quadric(np.eye(2), 0.0, Signature(0, 2), 5, seed=3)


@pytest.mark.parametrize("m, c, sig, center", [
    (np.eye(2), 1.0, Signature(0, 2), np.array([0.0, 1.0])),
    (np.eye(3), 1.0, Signature(1, 3), np.array([0.0, 0.0, 1.0])),
    (np.eye(3), -1.0, Signature(1, 3), np.array([1.0, 0.0, 0.0])),
    (ROTATION_GENERATOR, 2.0, SIG12, np.array([np.exp(0.8), np.exp(-0.8)])),
    (np.diag([1.0, -1.0]), 1.0, Signature(0, 2), np.array([1.0, 0.0])),
])
def test_quadric_chart_membership_jets_orientation(m, c, sig, center):
    chart = QuadricChart(m, c, sig, center, half_width=0.3)
    rng = np.random.default_rng(4)
    n1 = sig.n - 1
    pts = rng.uniform(chart.box[:, 0] + 0.02, chart.box[:, 1] - 0.02, size=(12, n1))
    vals = chart.jets(pts, 0)[0]
    assert np.max(np.abs(quadric_rhs(m, sig, vals) - c)) < 1e-10
    for t in pts[:4]:
        x, jac, hess = chart.jets(t, 2)
        h = 1e-6
        for a in range(n1):
            e = np.zeros(n1)
            e[a] = h
            fd = (chart.jets(t + e, 0)[0] - chart.jets(t - e, 0)[0]) / (2 * h)
            assert np.allclose(jac[a], fd, atol=1e-7)
        for a in range(n1):
            e = np.zeros(n1)
            e[a] = h
            fd_jac = (chart.jets(t + e, 1)[1] - chart.jets(t - e, 1)[1]) / (2 * h)
            assert np.allclose(hess[:, a], fd_jac, atol=5e-6)
        # oriented: det(tangents, position) stays positive across the chart
        assert np.linalg.det(np.vstack([jac, x])) > 0


def _loop_jacobian(chart, x):
    # pointwise reference: one tangent row per chart axis
    grad = 2.0 * chart.q @ x
    m, free = chart.solve_index, chart.free
    rows = np.zeros((chart.sig.n - 1, chart.sig.n))
    slope = -grad[free] / grad[m]
    for a in range(chart.sig.n - 1):
        rows[a, free[a]] = 1.0
        rows[a, m] = slope[a]
    return chart.flip[:, None] * rows


def _loop_hessian(chart, x):
    # pointwise reference: implicit second derivatives column by column
    qx = chart.q @ x
    m, free = chart.solve_index, chart.free
    jac = _loop_jacobian(chart, x)
    out = np.zeros((chart.sig.n - 1, chart.sig.n - 1, chart.sig.n))
    for b in range(chart.sig.n - 1):
        qv = chart.q @ jac[b]
        num = qv[free] * qx[m] - qx[free] * qv[m]
        out[:, b, m] = -chart.flip * num / qx[m] ** 2
    return out


@pytest.mark.parametrize("m, c, sig, center, flipped", [
    (np.eye(3), 1.0, Signature(0, 3), [0.0, 0.0, 1.0], False),
    (np.eye(3), 1.0, Signature(0, 3), [0.0, 1.0, 0.0], True),
    (np.eye(3), -1.0, SIG13, [1.0, 0.0, 0.0], False),
    (np.eye(3), 1.0, SIG13, [0.0, 1.0, 0.0], True),
    (COUPLED_M13, 1.0, SIG13, None, True),
])
def test_quadric_chart_jets_broadcast_over_stacks(m, c, sig, center, flipped):
    if center is None:
        center = find_quadric_point(m, c, sig)
    chart = QuadricChart(m, c, sig, np.asarray(center), half_width=0.3)
    assert (chart.flip[0] < 0) == flipped
    n = sig.n
    rng = np.random.default_rng(12)
    pts = rng.uniform(chart.box[:, 0] + 0.02, chart.box[:, 1] - 0.02, size=(12, n - 1))
    x, jac, hess = jets = chart.jets(pts, 2)
    assert x.shape == (12, n) and jac.shape == (12, n - 1, n)
    assert hess.shape == (12, n - 1, n - 1, n)
    # a lower order returns the leading entries of the full list, bit for bit
    for order in (0, 1):
        lower = chart.jets(pts, order)
        assert len(lower) == order + 1
        for got, want in zip(lower, jets):
            np.testing.assert_array_equal(got, want)
    for k, t in enumerate(pts):
        xk, jk, hk = chart.jets(t, 2)
        np.testing.assert_array_equal(jk, _loop_jacobian(chart, xk))
        np.testing.assert_array_equal(hk, _loop_hessian(chart, xk))
        np.testing.assert_allclose(x[k], xk, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(jac[k], jk, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(hess[k], hk, rtol=1e-13, atol=1e-14)


def test_quadric_chart_rejects_off_quadric_center():
    with pytest.raises(FamilySpecError):
        QuadricChart(np.eye(2), 1.0, Signature(0, 2), np.array([0.5, 0.5]))


# --- generators -------------------------------------------------------------------

def test_flat_plane_patch():
    sig = Signature(1, 3)
    patch = make_flat_patch(sig)
    u = np.array([0.2, 0.4, 0.8])
    assert lagrangian_defect(patch, u) == 0.0
    assert lagrangian_angle_at(patch, u) == pytest.approx(0.0)
    assert patch_volume(patch, 3) == pytest.approx(1.0)


def test_every_family_is_lagrangian_at_random_points(family_catalog):
    rng = np.random.default_rng(5)
    for name, patch in family_catalog:
        pts = interior_samples(patch, 1000, rng)
        worst = max(lagrangian_defect(patch, u) for u in pts)
        assert worst < 1e-10, f"{name} defect {worst:.2e}"


def test_family_jets_match_finite_differences(family_catalog):
    from lagcal.immersion import ImmersionPatch, finite_difference_frame

    rng = np.random.default_rng(6)
    for name, patch in family_catalog:
        for u in interior_samples(patch, 4, rng, margin=0.1):
            fd = finite_difference_frame(patch, u)
            assert np.allclose(tangent_frame(patch, u), fd, atol=1e-7), name
            bare = ImmersionPatch(sig=patch.sig, domain=patch.domain, f=patch.f)
            assert np.allclose(second_derivatives(patch, u),
                               second_derivatives(bare, u), atol=5e-6), name


def test_jets_broadcast_over_stacked_points(family_catalog):
    # the patch contract: d1, d2 and the finite-difference second derivatives
    # take (N, n) stacks and agree with per-point calls (the catalog's flat
    # plane is make_flat_patch)
    base = dict(family_catalog)["catenoid(p=1,n=3,eps=+1)"]
    c = base.domain.mean(axis=1)
    shear = np.eye(3) + 0.1 * np.roll(np.eye(3), 1, axis=1)
    box = np.stack([c - base.widths / 4, c + base.widths / 4], axis=-1)
    patches = family_catalog + [
        ("reparametrized-catenoid", reparametrize(base, shear, c - shear @ c, box)),
        ("spiral-lorentzian", spiral_lorentzian_surface()),
        ("null-spiral", null_reparametrized_spiral())]
    rng = np.random.default_rng(21)
    for name, patch in patches:
        pts = interior_samples(patch, 25, rng, margin=0.1)
        # induced_metric on n points, where transposing the whole stack
        # would keep its shape
        metric = functools.partial(induced_metric, patch)
        for jet, at in ((patch.d1, pts), (patch.d2, pts), (metric, pts[:patch.n])):
            stacked = jet(at)
            pointwise = np.stack([jet(u) for u in at])
            assert stacked.shape == pointwise.shape, name
            assert np.max(np.abs(stacked - pointwise)) <= 1e-12 * np.max(np.abs(pointwise)), name
        bare = ImmersionPatch(sig=patch.sig, domain=patch.domain, f=patch.f)
        stacked = second_derivatives(bare, pts)
        pointwise = np.stack([second_derivatives(bare, u) for u in pts])
        assert np.array_equal(stacked, pointwise), name


def test_family_fd_jets_converge_at_second_order(family_catalog):
    # central differences against the analytic jets over three decades of
    # step size: quadratic decay until the rounding floor takes over
    from lagcal.immersion import finite_difference_frame

    rng = np.random.default_rng(16)
    for name, patch in family_catalog:
        u = interior_samples(patch, 1, rng, margin=0.12)[0]
        exact = tangent_frame(patch, u)
        scale = np.max(np.abs(exact))
        errs = [np.max(np.abs(finite_difference_frame(patch, u, step=h) - exact)) / scale
                for h in (1e-3, 1e-4, 1e-5)]
        assert errs[1] < max(errs[0] / 20.0, 1e-12), (name, errs)
        assert errs[2] < max(errs[1] / 2.0, 1e-10), (name, errs)


def test_equivariant_circle_angle_law():
    patch = build_family(circle_equivariant_spec(n=2))
    rng = np.random.default_rng(7)
    for u in interior_samples(patch, 30, rng):
        s = u[-1]
        beta = lagrangian_angle_at(patch, u)
        assert circ_dist(beta, 2.0 * s + np.pi / 2.0) < 1e-9


def test_equivariant_angle_law_general(family_catalog):
    rng = np.random.default_rng(8)
    for name, patch in family_catalog:
        gamma = patch.meta.get("gamma")
        if gamma is None:
            continue
        n = patch.sig.n
        for u in interior_samples(patch, 20, rng):
            s = u[-1]
            g, dg = gamma.jets(s, 1)
            expected = np.angle(complex(dg) * complex(g) ** (n - 1))
            assert circ_dist(lagrangian_angle_at(patch, u), expected) < 1e-9, name


def test_stacked_angle_laws_match_their_pointwise_closed_forms(family_catalog):
    # the equivariant law arg(gamma' gamma^(n-1)) is exact; the evolving-quadric
    # law tr(M) s + arg(c r'/r + i |M x|_p^2) + pi/2 holds up to a constant
    rng = np.random.default_rng(14)
    exact = {}
    for name, patch in family_catalog:
        law = patch.meta.get("angle_law")
        if law is None:
            continue
        exact[name] = law.exact
        pts = interior_samples(patch, 40, rng)
        for u, beta in zip(pts, law.beta(pts)):
            s = u[-1]
            if law.exact:
                g, dg = patch.meta["gamma"].jets(s, 1)
                expected = np.angle(complex(dg) * complex(g) ** (patch.n - 1))
            else:
                chart, r = patch.meta["chart"], patch.meta["r"]
                mx = chart.M @ chart.jets(u[:-1], 0)[0]
                rv, rd = map(float, r.jets(s, 1))
                inner = complex(chart.c * rd / rv, float(metric(mx, mx, patch.sig)))
                expected = np.trace(chart.M) * s + np.angle(inner) + np.pi / 2.0
            assert circ_dist(beta, expected) <= 1e-15, name
    assert exact == {name: not name.startswith("quadric") for name, _ in family_catalog
                     if name.startswith(("equivariant", "catenoid", "quadric"))}


def test_transformed_patches_carry_no_meta():
    # a patch's chart, profile and angle law are written in its own coordinates:
    # on the sheared line equivariant the base law, flagged exact, is off from
    # the frame's angle by up to 0.05 rad, and a flowed patch is another surface
    base = build_family(line_equivariant_spec())
    assert set(base.meta) == {"chart", "gamma", "angle_law"}
    c = base.domain.mean(axis=1)
    shear = np.array([[1.0, 0.3], [0.4, 1.0]])
    box = np.stack([c - base.widths / 8, c + base.widths / 8], axis=-1)
    assert reparametrize(base, shear, c - shear @ c, box).meta == {}
    spec = PerturbationSpec(center=c, radius=0.2, amplitude=0.05, steps=2)
    assert hamiltonian_perturb(base, spec, grid=(16, 16)).meta == {}
    # with nothing to flow the input itself comes back, meta and all
    assert hamiltonian_perturb(base, dataclasses.replace(spec, amplitude=0.0)) is base


def test_catenoid_curve_satisfies_defining_equation():
    for n, c, sector in [(2, 1.0, 0), (2, -0.7, 1), (3, 2.0, 2), (3, -1.0, 3)]:
        curve = catenoid_curve(n, c, sector)
        phis = np.linspace(*curve.interval, 40)
        g = curve.jets(phis, 0)[0]
        assert np.max(np.abs((g ** n).imag - c)) < 1e-12
        if n == 2 and c == 1.0:
            assert np.max(np.abs(2.0 * g.real * g.imag - 1.0)) < 1e-12


def test_catenoid_sector_sign_mismatch_errors():
    with pytest.raises(FamilySpecError):
        catenoid_curve(2, 1.0, 1)
    with pytest.raises(FamilySpecError):
        catenoid_curve(2, -1.0, 0)
    with pytest.raises(FamilySpecError):
        catenoid_curve(2, 0.0, 0)


def test_catenoid_angle_constant():
    for sig, eps in catenoid_combinations():
        patch = build_family(Catenoid(sig=sig, epsilon=eps, c=1.0, sector=0))
        rng = np.random.default_rng(9)
        betas = [lagrangian_angle_at(patch, u) for u in interior_samples(patch, 25, rng)]
        assert circ_spread(betas) < 1e-10, (sig, eps)


def test_empty_quadric_combinations_error():
    with pytest.raises(FamilySpecError):
        build_family(Catenoid(sig=Signature(0, 2), epsilon=-1, c=1.0, sector=0))
    with pytest.raises(FamilySpecError):
        build_family(Equivariant(sig=Signature(2, 2), epsilon=1,
                                 gamma=Curve.exponential(1.0, 1j, (0.0, 2.0 * np.pi))))


def test_evolving_quadric_identity_matrix_angle():
    # M = identity, r constant: direct angle evaluates to n s + pi/2.
    patch = build_family(expanding_quadric_spec())
    rng = np.random.default_rng(10)
    for u in interior_samples(patch, 25, rng):
        s = u[-1]
        assert circ_dist(lagrangian_angle_at(patch, u), 2.0 * s + np.pi / 2.0) < 1e-9


def test_evolving_quadric_angle_law_constant_offset():
    for spec in (rotation_quadric_spec(), varying_profile_quadric_spec()):
        patch = build_family(spec)
        chart = patch.meta["chart"]
        offsets = []
        for t in np.linspace(chart.box[:, 0] + 0.03, chart.box[:, 1] - 0.03, 9):
            for s in np.linspace(*spec.s_interval, 9):
                u = np.append(np.atleast_1d(t), s)
                x = chart.jets(np.atleast_1d(t), 0)[0]
                direct = lagrangian_angle_at(patch, u)
                law = evolving_quadric_angle(spec, s, x)
                offsets.append(wrap_angle(direct - law))
        assert circ_spread(offsets) < 1e-9, spec


def test_coupled_evolving_quadric_jets_match_finite_differences():
    # n = 3 with a coupled form: the hessian's off-diagonal chart blocks
    # are nonzero here, unlike on the n = 2 quadrics of the family catalog
    from lagcal.immersion import ImmersionPatch, finite_difference_frame

    patch = build_family(EvolvingQuadric(sig=SIG13, matrix=COUPLED_M13, c=1.0,
                                         r=Curve.exponential(1.0, 0.3),
                                         s_interval=(-0.3, 0.3)))
    bare = ImmersionPatch(sig=patch.sig, domain=patch.domain, f=patch.f)
    rng = np.random.default_rng(13)
    for u in interior_samples(patch, 6, rng, margin=0.1):
        assert np.allclose(tangent_frame(patch, u), finite_difference_frame(patch, u),
                           atol=1e-7)
        assert np.allclose(second_derivatives(patch, u), second_derivatives(bare, u),
                           atol=5e-6)
        assert lagrangian_defect(patch, u) < 1e-10


def test_evolving_quadric_rejects_non_self_adjoint():
    with pytest.raises(FamilySpecError) as info:
        build_family(EvolvingQuadric(sig=Signature(0, 2), matrix=ROTATION_GENERATOR,
                                     c=1.0, chart_center=np.array([0.0, 1.0])))
    assert info.value.fields == ("matrix",)


@pytest.mark.parametrize("half_width", [0.0, -0.1])
def test_quadric_chart_families_name_a_non_positive_half_width(half_width):
    with pytest.raises(FamilySpecError) as info:
        build_family(Catenoid(sig=Signature(0, 2), epsilon=1, c=1.0, sector=0,
                              chart_half_width=half_width))
    assert info.value.fields == ("chart_half_width",)


def test_build_probes_as_many_frames_at_every_dimension(monkeypatch):
    # the build probes a fixed set of frames, not the 2^n corners of the box
    probed = []

    def counted(frames, sig):
        probed.append(len(frames))
        return frame_quantities(frames, sig)

    monkeypatch.setattr("lagcal.families.frame_quantities", counted)
    for n in (4, 16):
        build_family(Catenoid(sig=Signature(1, n), c=1.0, epsilon=-1))
    assert len(probed) == 2 and probed[0] == probed[1], probed


def test_spline_curves_match_analytic_exponentials():
    # a complex profile gamma and a real coefficient pair, each through 41 samples
    spiral = Curve.exponential(1.0, complex(np.cos(0.6), np.sin(0.6)), (-0.5, 0.5))
    for exact in (spiral, hyperbola_product_spec().gamma1):
        s = np.linspace(*exact.interval, 41)
        spline = Curve.from_samples(s, exact.jets(s, 0)[0])
        assert spline.interval == exact.interval
        fine = np.linspace(*exact.interval, 401)
        # cubic spline errors shrink like h^4, h^3 and h^2 for the value and two jets
        for order, got, want, tol in zip(range(3), spline.jets(fine, 2), exact.jets(fine, 2),
                                         (2e-7, 4e-5, 4e-3)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.max(np.abs(got - want)) < tol * np.max(np.abs(want)), order


@pytest.mark.parametrize("m", [4, 5, 7, 41, 200])
def test_spline_curves_match_scipy_cubic_spline(m):
    # the B-spline interpolant on FITPACK's s=0 knots is the not-a-knot cubic
    # spline; random values at jittered nodes exercise every basis function
    rng = np.random.default_rng(m)
    s = np.linspace(-0.5, 0.7, m) + rng.uniform(-0.3, 0.3, m) * 1.2 / (m - 1)
    width = s[-1] - s[0]
    x = np.concatenate([np.linspace(s[0] - 0.025 * width, s[-1] + 0.025 * width, 601),
                        s, np.nextafter(s[[0, -1]], [-np.inf, np.inf])])
    for values in (rng.normal(size=m) + 1j * rng.normal(size=m), rng.normal(size=(m, 2))):
        spline = Curve.from_samples(s, values)
        ref = CubicSpline(s, values, bc_type="not-a-knot")
        for order, got in enumerate(spline.jets(x, 2)):
            want = ref(x, order)
            assert got.shape == want.shape and got.dtype == want.dtype, order
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (order, values.dtype)


# every Curve constructor: the curve, the component shape and the dtype of its jets
_SPLINE_S = np.linspace(-0.5, 0.5, 41)
CURVE_CASES = {
    "line": (Curve.line(1.0, 0.5j, (-1.0, 1.0)), (), complex),
    "exponential": (Curve.exponential(1.0, complex(0.3, 1.0), (-0.5, 0.5)), (), complex),
    "exponential-pair": (Curve.exponential([0.5, 2.0], [1.0, -1.0], (0.05, 1.5)), (2,), float),
    "great-circle": (Curve.great_circle((0.1, 1.4)), (2,), complex),
    "samples-complex": (Curve.from_samples(
        _SPLINE_S, np.exp(complex(np.cos(0.6), np.sin(0.6)) * _SPLINE_S)), (), complex),
    "samples-pair": (Curve.from_samples(
        _SPLINE_S, np.stack([np.exp(_SPLINE_S), 0.5 * np.exp(-_SPLINE_S)], -1)), (2,), float),
    "catenoid-n2": (catenoid_curve(2, 1.0, 0), (), complex),
    "catenoid-n3": (catenoid_curve(3, -1.0, 3), (), complex),
}


@pytest.mark.parametrize("name", sorted(CURVE_CASES))
def test_curve_jets_truncate_and_differentiate(name):
    curve, component, dtype = CURVE_CASES[name]
    lo, hi = curve.interval
    s = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 12).reshape(3, 4)
    full = curve.jets(s, 2)
    assert len(full) == 3
    for jet in full:
        assert jet.shape == s.shape + component and jet.dtype == dtype
    # a lower order gives the leading entries of the full list, bit for bit
    for order in range(3):
        part = curve.jets(s, order)
        assert len(part) == order + 1
        for got, want in zip(part, full):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), order
    # each derivative is the central difference of the order below
    h = 1e-5 * (hi - lo)
    for order in (1, 2):
        below = order - 1
        fd = (curve.jets(s + h, below)[below] - curve.jets(s - h, below)[below]) / (2.0 * h)
        assert np.max(np.abs(fd - full[order])) <= 1e-6 * max(1.0, np.max(np.abs(full[order])))


def _counting(curve):
    """The curve with a record of the order of each jets call."""
    calls = []

    def jets(s, order):
        calls.append(order)
        return curve.jets(s, order)
    return Curve(jets, curve.interval), calls


def test_patch_jets_evaluate_each_curve_once(monkeypatch):
    chart_calls = []
    chart_jets = QuadricChart.jets

    def counted_chart_jets(chart, t, order):
        chart_calls.append(order)
        return chart_jets(chart, t, order)

    monkeypatch.setattr(QuadricChart, "jets", counted_chart_jets)
    gamma, gamma_calls = _counting(catenoid_curve(3, 1.0, 0))
    r, r_calls = _counting(Curve.exponential(1.0, 0.3))
    pair = hyperbola_product_spec()
    g1, g1_calls = _counting(pair.gamma1)
    g2, g2_calls = _counting(pair.gamma2)
    sphere, sphere_calls = _counting(small_circle_hopf_spec().gamma)
    cases = [
        (Equivariant(sig=SIG13, epsilon=1, gamma=gamma), [gamma_calls, chart_calls]),
        (dataclasses.replace(rotation_quadric_spec(), r=r), [r_calls, chart_calls]),
        (dataclasses.replace(pair, gamma1=g1, gamma2=g2), [g1_calls, g2_calls]),
        (Hopf(sig=Signature(0, 2), gamma=sphere), [sphere_calls]),
    ]
    rng = np.random.default_rng(15)
    for spec, records in cases:
        patch = build_family(spec)
        u = interior_samples(patch, 5, rng)
        for calls in records:
            calls.clear()
        patch.f(u)
        patch.d1(u)
        patch.d2(u)
        # f, d1 and d2 each make one jets call of their own order on every
        # curve and on the quadric chart
        for calls in records:
            assert calls == [0, 1, 2], type(spec).__name__


def test_product_null_curves_structure():
    patch = build_family(hyperbola_product_spec())
    rng = np.random.default_rng(11)
    for u in interior_samples(patch, 15, rng):
        frame = tangent_frame(patch, u)
        sec = second_derivatives(patch, u)
        assert np.all(sec[0, 1] == 0.0) and np.all(sec[1, 0] == 0.0)
        fu2 = herm_form(frame[0], frame[0], patch.sig).real
        fv2 = herm_form(frame[1], frame[1], patch.sig).real
        assert abs(fu2) < 1e-12 and abs(fv2) < 1e-12


def test_product_null_rejects_non_null_plane():
    bad = np.eye(2, dtype=complex)
    spec = hyperbola_product_spec()
    with pytest.raises(FamilySpecError):
        build_family(ProductNullCurves(sig=SIG12, plane=bad,
                                       gamma1=spec.gamma1, gamma2=spec.gamma2))


def test_product_null_flags_degenerate_cross_pairing():
    # parallel coefficient velocities kill <gamma_1', J gamma_2'> identically, so
    # the build's probe finds the frames degenerate
    same = Curve.exponential([1.0, 1.0], [1.0, 1.0], (-0.5, 0.5))
    with pytest.raises(FamilySpecError) as info:
        build_family(ProductNullCurves(sig=SIG12, gamma1=same, gamma2=same))
    assert info.value.fields == ("gamma1", "gamma2")
    build_family(hyperbola_product_spec())


def test_product_matches_rotation_quadric_pointwise():
    c = 2.0
    qspec = rotation_quadric_spec(c)
    quad = build_family(qspec)
    prod = build_family(hyperbola_product_spec(c))
    chart = quad.meta["chart"]
    rng = np.random.default_rng(12)
    for _ in range(50):
        s = rng.uniform(-0.3, 0.3)
        t = rng.uniform(0.5, 1.0)
        x1 = np.exp(t)
        uq = np.array([x1, s]) if chart.solve_index == 1 else np.array([(c / 2) * np.exp(-t), s])
        fq = quad.f(uq)
        fp = prod.f(np.array([s + t, s - t]))
        assert np.max(np.abs(fq - fp)) < 1e-12


def _unit_null_fields(patch, count, rng):
    """Both fields of unit null tangent vectors of a Lorentzian surface, (count, 4) real rows each.

    The null lines at a point solve g00 a^2 + 2 g01 a b + g11 b^2 = 0.  The
    line of one sign is spanned by (-g01 + sign root, g00) and, equally, by
    (g11, -g01 - sign root); the longer of the two is taken.  Both never
    vanish together where det g < 0, so each sign is one continuous line field.
    """
    pts = interior_samples(patch, count, rng)
    frame = tangent_frame(patch, pts)
    g = induced_metric(patch, pts)
    g00, g01, g11 = g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]
    root = np.sqrt(g01 ** 2 - g00 * g11)
    fields = []
    for sign in (1.0, -1.0):
        first = np.stack([-g01 + sign * root, g00], axis=-1)
        second = np.stack([g11, -g01 - sign * root], axis=-1)
        longer = np.linalg.norm(second, axis=-1) > np.linalg.norm(first, axis=-1)
        v = np.einsum("kj,kjz->kz", np.where(longer[:, None], second, first), frame)
        fields.append(real_components(v / np.linalg.norm(v, axis=-1, keepdims=True)))
    return fields


def test_neutral_minimal_surfaces_have_null_directions_in_p_and_jp(family_catalog):
    # the paper's neutral minimal Lagrangian surfaces are gamma_1(u) + J gamma_2(v)
    # with both curves in one totally null plane P: one field of null tangent
    # directions spans P everywhere and the other J P.  The rank gap is the third
    # singular value of a field's stacked unit vectors over the first.
    line = build_family(Equivariant(sig=SIG12, epsilon=1, gamma=Curve.line(1.0, 1j, (-0.8, 0.8))))
    surfaces = [(name, patch) for name, patch in family_catalog
                if (patch.sig.p, patch.n) == (1, 2)] + [("equivariant-line(p=1)", line)]
    controls = {"equivariant-spiral", "equivariant-line(p=1)"}  # non-minimal: the angle varies
    assert len(surfaces) - len(controls) == 4  # both catenoids, rotation quadric, product
    rng = np.random.default_rng(55)
    for name, patch in surfaces:
        fields = _unit_null_fields(patch, 300, rng)
        gaps = []
        planes = []
        for field in fields:
            _, sv, vt = np.linalg.svd(field, full_matrices=False)
            gaps.append(sv[2] / sv[0])
            planes.append(from_components(vt[:2]))
        if name in controls:
            assert min(gaps) >= 1e-2, (name, gaps)
            continue
        assert max(gaps) <= 1e-12, (name, gaps)
        p_plane, q_plane = planes
        assert plane_props(p_plane, patch.sig).totally_null, name
        assert spans_equal(q_plane, apply_J(p_plane)), name


def test_hopf_patch_validation_and_defect():
    patch = build_family(small_circle_hopf_spec())
    rng = np.random.default_rng(13)
    for u in interior_samples(patch, 20, rng):
        assert lagrangian_defect(patch, u) < 1e-12
    circle = Curve.great_circle()
    off_sphere = Curve(lambda s, order: [1.1 * v for v in circle.jets(s, order)], (0.0, 1.0))
    with pytest.raises(FamilySpecError):
        build_family(Hopf(sig=Signature(0, 2), gamma=off_sphere))
    with pytest.raises(FamilySpecError) as info:
        build_family(Hopf(sig=Signature(1, 3), gamma=Curve.great_circle()))
    assert info.value.fields == ("sig",)


@pytest.mark.parametrize("a", [0.4, 1.1])
@pytest.mark.parametrize("k", [1.0, 1.7, 3.0, 0.3])
def test_hopf_rejects_a_curve_along_the_circle_action(k, a):
    # gamma' = i k gamma: the frame (gamma', i gamma) is rank-deficient at every s
    fiber = Curve.exponential([np.cos(a), np.sin(a)], [1j * k, 1j * k], (0.0, 1.0))
    with pytest.raises(FamilySpecError) as info:
        build_family(Hopf(sig=Signature(0, 2), gamma=fiber))
    assert info.value.fields == ("gamma",)
    # the build probe: the 64 profile points at t = 0, each frame flagged
    value, velocity = fiber.jets(np.linspace(0.0, 1.0, 64), 1)
    frames = np.stack([velocity, 1j * value], axis=-2)
    assert frame_quantities(frames, Signature(0, 2))["degenerate"].all()


def test_equivariance_orbit_membership():
    for spec in (circle_equivariant_spec(2),
                 Catenoid(sig=Signature(1, 3), epsilon=1, c=1.0, sector=0)):
        patch = build_family(spec)
        sig = patch.sig
        chart = patch.meta["chart"]
        gamma = patch.meta["gamma"]
        rng = np.random.default_rng(14)
        for u in interior_samples(patch, 10, rng):
            t, s = u[:-1], u[-1]
            x = chart.jets(t, 0)[0]
            a = special_orthogonal_sample(rng, sig)
            moved = a @ patch.f(u)
            # the moved point factors through the quadric again
            g = complex(gamma.jets(s, 0)[0])
            xm = (moved / g).real
            assert np.max(np.abs(moved / g - xm)) < 1e-10
            assert abs(float(quadric_rhs(np.eye(sig.n), sig, xm)) - spec.epsilon) < 1e-8
            assert np.max(np.abs(moved - g * (a @ x))) < 1e-8


def test_radial_profile_positivity_guard():
    # r = 0, r < 0 and a profile changing sign inside s_interval are rejected
    base = expanding_quadric_spec()
    for r in (Curve.exponential(0.0, 0.0), Curve.exponential(-1.0, 0.3),
              Curve.line(0.1, 1.0, (-1.0, 1.0))):
        with pytest.raises(FamilySpecError) as info:
            build_family(dataclasses.replace(base, r=r))
        assert info.value.fields == ("r",)
    positive = dataclasses.replace(base, r=Curve.exponential(0.1, -10.0))
    assert build_family(positive).meta["r"] is positive.r
