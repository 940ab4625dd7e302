"""Calibration inequality, determinant identity, and Hamiltonian experiments."""

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from lagcal import core
from lagcal.calibration import (
    DegenerateInput,
    FlowDegeneracy,
    PerturbationSpec,
    _PolarFlow,
    _padded_polar_grid,
    bump_profile_d1,
    frame_quantities,
    hamiltonian_perturb,
    random_lagrangian_frames,
    random_perturbations,
    rotate_frame_to_angle,
    volume_compare,
)
from lagcal.core import Signature, hol_volume
from lagcal.families import Catenoid, Curve, Equivariant, build_family
from lagcal.immersion import (
    DegenerateFrame,
    ImmersionPatch,
    _central_frames,
    dvol,
    interior_samples,
    lagrangian_angle_at,
    lagrangian_defect,
    make_flat_patch,
)
from lagcal.spline import NotAKnotBicubic

ALL_SIGS = [Signature(p, n) for n in (1, 2, 3, 4) for p in range(n + 1)]


def calibration_form(q, beta0):
    """The calibration form Re(e^{-i beta_0} Omega) from frame_quantities."""
    return (np.exp(-1j * beta0) * q["omega_det"]).real


def test_theta0_frozen_values():
    sig = Signature(1, 2)
    q = frame_quantities(np.eye(2, dtype=complex), sig)
    assert calibration_form(q, 0.0) == pytest.approx(1.0)
    assert calibration_form(q, np.pi / 2.0) == pytest.approx(0.0, abs=1e-15)


def test_random_frames_are_lagrangian_and_satisfy_identity():
    rng = np.random.default_rng(0)
    for sig in ALL_SIGS:
        frames = random_lagrangian_frames(sig, 200, rng)
        q = frame_quantities(frames, sig)
        assert np.max(q["defect"]) < 1e-10
        rel = np.abs(q["dvol"] - np.abs(q["omega_det"])) / q["dvol"]
        assert np.max(rel) < 1e-9


def full_recheck_frames(sig, count, rng):
    """Reference redraw loop that recomputes every determinant each round,
    then the pseudo-unitary factors and the frame product on the whole
    stack at once, without blocks.

    Returns the frames and the number of redraw rounds.
    """
    real = rng.uniform(-1.0, 1.0, (count, sig.n, sig.n))
    rounds = 0
    while True:
        bad = np.abs(np.linalg.det(real)) <= 0.05
        if not bad.any():
            break
        real[bad] = rng.uniform(-1.0, 1.0, (int(bad.sum()), sig.n, sig.n))
        rounds += 1
    shape = (count, sig.n, sig.n)
    c = rng.uniform(-0.5, 0.5, shape) + 1j * rng.uniform(-0.5, 0.5, shape)
    u = core.matrix_exp(sig.eps[:, None] * ((c - c.conj().swapaxes(-1, -2)) / 2.0))
    return real.astype(complex) @ u.swapaxes(-1, -2), rounds


@pytest.mark.parametrize("p, n", [(0, 1), (1, 2), (1, 3), (2, 4)])
@pytest.mark.parametrize("seed", [3, 11])
def test_redraw_of_bad_rows_matches_full_recheck(p, n, seed):
    sig = Signature(p, n)
    expected, rounds = full_recheck_frames(sig, 2000, np.random.default_rng(seed))
    assert rounds >= 2  # rows redrawn once came out bad again
    frames = random_lagrangian_frames(sig, 2000, np.random.default_rng(seed))
    assert np.array_equal(frames, expected)


@pytest.mark.parametrize("p, n", [(0, 1), (1, 3), (2, 4)])
def test_random_frames_equal_the_whole_stack_product(p, n):
    # two full blocks and a ragged one of 5; then a stack of one frame
    sig = Signature(p, n)
    count = 2 * core.STACK_BLOCK + 5
    expected, _ = full_recheck_frames(sig, count, np.random.default_rng(16))
    frames = random_lagrangian_frames(sig, count, np.random.default_rng(16))
    assert frames.shape == expected.shape and np.array_equal(frames, expected)
    single = full_recheck_frames(sig, 1, np.random.default_rng(17))[0][0]
    assert np.array_equal(random_lagrangian_frames(sig, 1, np.random.default_rng(17))[0], single)


class SingularThenRandom:
    """A generator whose first ``singular`` uniform draws are zero (singular
    real frames); every later call goes to a seeded default_rng."""

    def __init__(self, singular, seed):
        self.singular = singular
        self.rng = np.random.default_rng(seed)

    def uniform(self, low, high, size):
        if self.singular:
            self.singular -= 1
            return np.zeros(size)
        return self.rng.uniform(low, high, size)


def test_redraw_succeeding_in_the_last_round_is_accepted():
    # the initial draw and 99 redraws are singular, the 100th redraw is not
    sig = Signature(1, 3)
    frames = random_lagrangian_frames(sig, 4, SingularThenRandom(100, 18))
    assert frames.shape == (4, 3, 3)
    assert np.all(np.abs(np.linalg.det(frames)) > 0.0)
    with pytest.raises(DegenerateInput, match="100 attempts"):
        random_lagrangian_frames(sig, 4, SingularThenRandom(101, 18))


def test_real_frame_has_zero_angle_and_tight_theta0():
    # the pseudo-unitary mixing factor set to the identity: a positively
    # oriented real frame has angle zero and saturates the inequality
    rng = np.random.default_rng(1)
    sig = Signature(1, 3)
    real = rng.uniform(-1.0, 1.0, (3, 3))
    while np.linalg.det(real) < 0.05:
        real = rng.uniform(-1.0, 1.0, (3, 3))
    frame = real.astype(complex)
    q = frame_quantities(frame, sig)
    assert np.angle(hol_volume(frame)) == pytest.approx(0.0, abs=1e-12)
    assert q["beta"] == pytest.approx(0.0, abs=1e-12)
    assert q["dvol"] - calibration_form(q, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_calibration_inequality_over_angle_grid():
    rng = np.random.default_rng(2)
    for sig in (Signature(0, 2), Signature(1, 2), Signature(1, 3)):
        frames = random_lagrangian_frames(sig, 100, rng)
        q = frame_quantities(frames, sig)
        for beta0 in np.linspace(-np.pi, np.pi, 16, endpoint=False):
            slack = q["dvol"] - calibration_form(q, beta0)
            assert np.min(slack / q["scale"]) > -1e-9


def test_equality_condition_after_rotation():
    rng = np.random.default_rng(3)
    sig = Signature(1, 2)
    beta0 = 0.7
    frames = random_lagrangian_frames(sig, 50, rng)
    rotated = rotate_frame_to_angle(frames, beta0, sig)
    q = frame_quantities(rotated, sig)
    assert np.max(q["defect"]) < 1e-10
    assert np.max(np.abs(q["dvol"] - calibration_form(q, beta0)) / q["dvol"]) < 1e-10
    # the stack and beta0 broadcast against each other; one frame at a time agrees
    beta0s = np.linspace(-3.0, 3.0, 50)
    stacked = rotate_frame_to_angle(frames, beta0s, sig)
    for k in (0, 17, 49):
        assert np.array_equal(stacked[k], rotate_frame_to_angle(frames[k], beta0s[k], sig))
    assert np.allclose(np.angle(np.linalg.det(stacked)), beta0s, atol=1e-12)


def test_identity_fails_on_non_lagrangian_witness():
    # The frame (e1, i e1) spans a complex line: dvol = 1 in definite
    # signature yet det of the coefficient matrix vanishes, so the
    # identity dvol = |det M| genuinely needs the Lagrangian hypothesis.
    sig = Signature(0, 2)
    witness = np.array([[1.0, 0.0], [1.0j, 0.0]], dtype=complex)
    q = frame_quantities(witness, sig)
    assert q["dvol"] == pytest.approx(1.0)
    assert abs(q["omega_det"]) == pytest.approx(0.0, abs=1e-15)
    assert q["defect"] == pytest.approx(1.0)
    assert q["degenerate"]  # a complex line has no Lagrangian angle


def linear_patch(frame, sig):
    """The patch u -> u @ frame, whose tangent frame is ``frame`` everywhere."""
    return ImmersionPatch(sig=sig, domain=np.tile([0.0, 1.0], (sig.n, 1)),
                          f=lambda u: np.asarray(u) @ frame, d1=lambda u: frame)


def frames_with_degenerate_tail(sig):
    """200 random Lagrangian frames, then one with a zero row, one with a repeated row
    and one whose last row is 3 times its first."""
    frames = random_lagrangian_frames(sig, 200, np.random.default_rng(5))
    zero_row = frames[0].copy()
    zero_row[-1] = 0.0
    repeated_row = frames[1].copy()  # still Lagrangian, but rank-deficient
    repeated_row[-1] = repeated_row[0]
    # rank-deficient too; its sqrt|det Re gram| is rounding noise lifted to ~1e-9 scale
    scaled_row = frames[2].copy()
    scaled_row[-1] = 3.0 * scaled_row[0]
    return np.concatenate([frames, [zero_row, repeated_row, scaled_row]])


@pytest.mark.parametrize("p, n", [(0, 2), (1, 2), (1, 3), (2, 4)])
def test_batched_frame_quantities_match_pointwise_calls(p, n):
    sig = Signature(p, n)
    frames = frames_with_degenerate_tail(sig)
    q = frame_quantities(frames, sig)
    u = np.full(n, 0.5)
    for k, frame in enumerate(frames):
        patch = linear_patch(frame, sig)
        assert q["defect"][k] == lagrangian_defect(patch, u)
        assert q["dvol"][k] == dvol(patch, u)
        assert q["degenerate"][k] == frame_quantities(frame, sig)["degenerate"]
        # the kernel's flag and the pointwise angle apply one rule
        try:
            lagrangian_angle_at(patch, u)
        except DegenerateFrame:
            assert q["degenerate"][k]
        else:
            assert not q["degenerate"][k]
    assert np.isfinite(q["defect"][-3])
    assert list(np.flatnonzero(q["degenerate"])) == [len(frames) - 3, len(frames) - 2,
                                                     len(frames) - 1]
    # the Lagrangian check passes, the degeneracy check trips
    assert q["defect"][-2] <= 1e-9 and q["defect"][-1] <= 1e-9


@pytest.mark.parametrize("block", [7, 10**6])
@pytest.mark.parametrize("p, n", [(0, 2), (1, 3)])
def test_frame_quantities_do_not_depend_on_the_block_size(monkeypatch, p, n, block):
    sig = Signature(p, n)
    frames = frames_with_degenerate_tail(sig)
    u = np.full(n, 0.5)
    patch = linear_patch(frames[3], sig)

    def pointwise():
        single = frame_quantities(frames[3], sig)
        return (lagrangian_defect(patch, u), dvol(patch, u),
                calibration_form(single, 0.3), single["dvol"], single["beta"])

    expected = frame_quantities(frames, sig)
    expected_pointwise = pointwise()
    monkeypatch.setattr(core, "STACK_BLOCK", block)
    q = frame_quantities(frames, sig)
    stacked = frame_quantities(frames[:10].reshape(2, 5, n, n), sig)
    for key, value in expected.items():
        assert q[key].dtype == value.dtype and np.array_equal(q[key], value), key
        assert np.array_equal(stacked[key], value[:10].reshape(2, 5)), key
    assert list(np.flatnonzero(q["degenerate"])) == [len(frames) - 3, len(frames) - 2,
                                                     len(frames) - 1]
    # a regular frame and the three rank-deficient frames on their own
    for k in (0, len(frames) - 3, len(frames) - 2, len(frames) - 1):
        single = frame_quantities(frames[k], sig)
        assert all(np.ndim(v) == 0 and v == expected[key][k] for key, v in single.items())
    assert pointwise() == expected_pointwise


def test_degenerate_frame_rejected():
    # two parallel vectors: Lagrangian, but the degeneracy flag trips
    sig = Signature(0, 2)
    frame = np.array([[1.0, 0.0], [2.0, 0.0]], dtype=complex)
    q = frame_quantities(frame, sig)
    assert q["defect"] == 0.0
    assert q["degenerate"]


# --- Hamiltonian deformations -----------------------------------------------

FLAT = make_flat_patch(Signature(0, 2))
CENTERED = PerturbationSpec(center=np.array([0.5, 0.5]), radius=0.35, amplitude=0.1)


def test_zero_amplitude_is_identity():
    pert = hamiltonian_perturb(FLAT, PerturbationSpec(np.array([0.5, 0.5]), 0.3, 0.0))
    rng = np.random.default_rng(5)
    pts = interior_samples(FLAT, 20, rng)
    assert np.array_equal(np.asarray(pert.f(pts)), np.asarray(FLAT.f(pts)))
    zero_steps = hamiltonian_perturb(FLAT, PerturbationSpec(np.array([0.5, 0.5]), 0.3, 0.1, steps=0))
    assert np.array_equal(np.asarray(zero_steps.f(pts)), np.asarray(FLAT.f(pts)))


def test_support_must_stay_interior():
    with pytest.raises(DegenerateInput):
        hamiltonian_perturb(FLAT, PerturbationSpec(np.array([0.5, 0.5]), 0.55, 0.1))
    with pytest.raises(DegenerateInput):
        hamiltonian_perturb(FLAT, PerturbationSpec(np.array([0.1, 0.5]), 0.2, 0.1))


def test_boundary_values_unchanged():
    pert = hamiltonian_perturb(FLAT, CENTERED)
    edge = np.array([[0.02, 0.5], [0.5, 0.98], [0.9, 0.05], [0.13, 0.13]])
    assert np.max(np.abs(np.asarray(pert.f(edge)) - np.asarray(FLAT.f(edge)))) < 1e-12


def test_perturbed_patch_keeps_small_defect():
    pert = hamiltonian_perturb(FLAT, CENTERED)
    rng = np.random.default_rng(6)
    pts = interior_samples(pert, 150, rng, margin=0.02)
    worst = max(lagrangian_defect(pert, u) for u in pts)
    assert worst < 1e-6


def test_flow_is_fourth_order_in_time():
    # Fixed total time and spatial grid: halving the step must shrink
    # the integration error by ~16. The spatial bias is identical for
    # every run, so trajectory differences isolate the RK4 order.
    rng = np.random.default_rng(7)
    probe = interior_samples(FLAT, 40, rng, margin=0.25)
    total = 0.02
    grid = (64, 64)

    def flowed(steps):
        spec = PerturbationSpec(np.array([0.5, 0.5]), 0.35, 0.3,
                                steps=steps, step_size=total / steps)
        return np.asarray(hamiltonian_perturb(FLAT, spec, grid=grid).f(probe))

    ref = flowed(128)
    errors = [np.max(np.abs(flowed(steps) - ref)) for steps in (1, 2, 4)]
    ratios = [errors[k] / errors[k + 1] for k in range(2)]
    for r in ratios:
        assert 10.0 < r < 26.0, ratios


def _reference_field(flow, d):
    """The reference below on the flow's component-major (2, g_rho, g_theta) state,
    with the Cartesian base rows df/du_x, df/du_y rebuilt from the patch."""
    frames = _central_frames(flow.patch, flow.nodes.reshape(-1, 2), flow.patch.steps(1))
    base_x1, base_x2 = np.moveaxis(frames.reshape(flow.g_rho, flow.g_theta, 2, 2), 2, 0)
    return np.moveaxis(_component_last_field(flow, np.moveaxis(d, 0, -1), base_x1, base_x2), -1, 0)


def _component_last_field(flow, d, base_x1, base_x2):
    """The flow field written directly on (g_rho, g_theta, 2) arrays: index-array
    radial stencil with accumulated closures, numpy.fft, Gram entries as sums
    over components."""
    g, spec = flow.g_rho, flow.spec
    ghost = np.roll(d[:2], flow.g_theta // 2, axis=1)[::-1]
    ext = np.concatenate([ghost, d], axis=0)
    d_rho = np.empty_like(d)
    idx = np.arange(0, g - 2)
    d_rho[idx] = (ext[idx] - 8.0 * ext[idx + 1] + 8.0 * ext[idx + 3] - ext[idx + 4]) \
        / (12.0 * flow.d_rho)
    for row, w in ((g - 2, flow.w_prev), (g - 1, flow.w_last)):
        start = row - 3 if row == g - 2 else row - 4
        acc = np.zeros_like(d[0])
        for j in range(5):
            acc = acc + w[j] * d[start + j]
        d_rho[row] = acc
    ik = 1j * np.fft.fftfreq(flow.g_theta, d=1.0 / flow.g_theta)
    d_theta = np.fft.ifft(ik[None, :, None] * np.fft.fft(d, axis=1), axis=1)

    cos_t, sin_t = np.cos(flow.theta), np.sin(flow.theta)
    inv_rho = 1.0 / flow.rho
    du_x = d_rho * cos_t[None, :, None] + d_theta * (inv_rho[:, None] * -sin_t)[..., None]
    du_y = d_rho * sin_t[None, :, None] + d_theta * (inv_rho[:, None] * cos_t)[..., None]
    x1 = base_x1 + du_x
    x2 = base_x2 + du_y
    eps = flow.patch.sig.eps
    g11 = np.sum((x1 * eps) * np.conj(x1), axis=-1).real
    g22 = np.sum((x2 * eps) * np.conj(x2), axis=-1).real
    g12 = np.sum((x1 * eps) * np.conj(x2), axis=-1).real
    det = g11 * g22 - g12 * g12
    slope = spec.amplitude * bump_profile_d1(flow.rho / spec.radius) / spec.radius
    dh1, dh2 = slope[:, None] * cos_t, slope[:, None] * sin_t
    a1 = (g22 * dh1 - g12 * dh2) / det
    a2 = (-g12 * dh1 + g11 * dh2) / det
    return -1j * (a1[..., None] * x1 + a2[..., None] * x2)


@pytest.mark.parametrize("patch", [
    make_flat_patch(Signature(1, 2)),
    build_family(Catenoid(sig=Signature(1, 2), epsilon=1, c=1.0, sector=0)),
    build_family(Catenoid(sig=Signature(0, 2), epsilon=1, c=1.0, sector=0)),
], ids=["flat(1,2)", "catenoid(p=1,n=2)", "catenoid(p=0,n=2)"])
def test_flow_field_matches_reference(patch):
    # eps = (-1, 1): a sign slip in the real Gram arithmetic would show
    spec = random_perturbations(patch, 1, seed=12)[0]
    flow = _PolarFlow(patch, spec)
    rng = np.random.default_rng(13)
    d = 1e-5 * (rng.standard_normal(flow.base.shape) + 1j * rng.standard_normal(flow.base.shape))
    ref = _reference_field(flow, d)
    assert np.max(np.abs(flow._field(d) - ref)) <= 1e-12 * np.max(np.abs(ref))
    at_rest = _reference_field(flow, np.zeros_like(d))
    assert np.max(np.abs(ref - at_rest)) > 1e-3 * np.max(np.abs(ref))


@pytest.mark.parametrize("p", [0, 1])
def test_flow_field_raises_on_degenerate_metric(p):
    # d = (v_y, -v_y) makes x2 = x1 = e1 on the interior rows
    flow = _PolarFlow(make_flat_patch(Signature(p, 2)), CENTERED, grid=(32, 32))
    v = flow.nodes - CENTERED.center
    d = np.stack([v[..., 1], -v[..., 1]]).astype(complex)
    with pytest.raises(FlowDegeneracy):
        flow._field(d)


def test_bicubic_matches_fitpack_on_a_flowed_catenoid():
    # the not-a-knot knots are FITPACK's s=0 ones, so each plane must be
    # RectBivariateSpline's interpolant up to rounding
    patch = build_family(Catenoid(sig=Signature(0, 2), epsilon=1, c=1.0, sector=0))
    bump = random_perturbations(patch, 1, seed=3)[0]
    spec = PerturbationSpec(bump.center, bump.radius, bump.amplitude, steps=20, step_size=1e-3)
    flow = _PolarFlow(patch, spec, grid=(64, 64))
    rho, theta, planes = _padded_polar_grid(flow, flow.run())
    assert planes.shape == (len(rho), len(theta), 4)
    scale = np.max(np.abs(planes))
    assert scale > 1e-4
    interp = NotAKnotBicubic(rho, theta, planes)

    at_nodes = interp(*(a.ravel() for a in np.meshgrid(rho, theta, indexing="ij")))
    assert np.max(np.abs(at_nodes.reshape(planes.shape) - planes)) <= 1e-14 * scale

    rng = np.random.default_rng(14)
    r = rng.uniform(0.0, spec.radius, 4000)
    t = rng.uniform(0.0, 2.0 * np.pi, 4000)
    edge_r = [0.0, np.nextafter(spec.radius, 0.0), 0.5 * spec.radius]
    edge_t = [-1e-9, 0.0, 1e-9, 2.0 * np.pi - 1e-9, 2.0 * np.pi, 2.0 * np.pi + 1e-9]
    er, et = np.meshgrid(edge_r, edge_t, indexing="ij")
    r, t = np.concatenate([r, er.ravel()]), np.concatenate([t, et.ravel()])
    ours = interp(r, t)
    for k in range(planes.shape[-1]):
        ref = RectBivariateSpline(rho, theta, planes[..., k], kx=3, ky=3).ev(r, t)
        assert np.max(np.abs(ours[:, k] - ref)) <= 1e-14 * np.max(np.abs(ref)), k


def test_volume_compare_on_flat_patch():
    specs = random_perturbations(FLAT, 3, seed=8)
    report = volume_compare(FLAT, specs, [32, 32], flow_grid=(96, 96))
    assert report.base_volume == pytest.approx(1.0, rel=1e-9)
    assert report.degenerate_count == 0
    assert report.min_slack() >= -1e-6
    for result in report.results:
        assert result.status == "ok"
        assert result.defect_max < 1e-6
        assert result.degenerate_points == 0


def test_volume_compare_reproducible():
    specs = random_perturbations(FLAT, 2, seed=9)
    r1 = volume_compare(FLAT, specs, [24, 24], flow_grid=(64, 64))
    r2 = volume_compare(FLAT, specs, [24, 24], flow_grid=(64, 64))
    assert [a.volume for a in r1.results] == [b.volume for b in r2.results]


@pytest.mark.parametrize("grid", [[64, 64], [64, 32]])
def test_volume_compare_rejects_a_non_minimal_base(grid):
    # gamma(s) = 1 + i s has angle pi/2 + arctan s.  Every 64th node of
    # these grids has the same s, so only probes across both axes see it.
    base = build_family(Equivariant(sig=Signature(0, 2), epsilon=1,
                                    gamma=Curve.line(1.0, 1j, (0.0, 1.0))))
    with pytest.raises(DegenerateInput, match="not minimal"):
        volume_compare(base, [], grid)


def test_random_perturbations_admissible():
    specs = random_perturbations(FLAT, 10, seed=10)
    for spec in specs:
        assert np.all(spec.center - spec.radius > 0.0)
        assert np.all(spec.center + spec.radius < 1.0)
        assert 0.02 <= spec.amplitude <= 0.2


def test_perturbation_of_single_point_eval():
    pert = hamiltonian_perturb(FLAT, CENTERED)
    inside = np.array([0.5, 0.6])
    outside = np.array([0.05, 0.05])
    moved = np.asarray(pert.f(inside))
    assert np.max(np.abs(moved - np.asarray(FLAT.f(inside)))) > 1e-6
    assert np.array_equal(np.asarray(pert.f(outside)), np.asarray(FLAT.f(outside)))


def test_flow_divergence_guard_trips_on_tight_bound(monkeypatch):
    import lagcal.calibration as calibration

    monkeypatch.setattr(calibration, "AMBIENT_BOUND", 0.5)
    with pytest.raises(calibration.FlowDivergence):
        hamiltonian_perturb(FLAT, CENTERED)


def test_volume_compare_thread_cap_is_deterministic(monkeypatch):
    import lagcal.calibration as calibration

    workers = []

    class RecordingPool(calibration.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(calibration, "ThreadPoolExecutor", RecordingPool)
    specs = random_perturbations(FLAT, 2, seed=11)
    reports = []
    for cpus in ({0}, {0, 1}, {0, 1, 2}):
        monkeypatch.setattr(calibration.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        reports.append(volume_compare(FLAT, specs, [16, 16], flow_grid=(64, 64)))
    # one worker per usable CPU, at most one per competitor
    assert workers == [1, 2, 2]
    serial, threaded, _ = reports
    assert [r.volume for r in serial.results] == [r.volume for r in threaded.results]
    assert [r.status for r in serial.results] == [r.status for r in threaded.results]
    assert [r.defect_max for r in serial.results] == [r.defect_max for r in threaded.results]
