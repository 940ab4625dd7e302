"""Calibration inequality, determinant identity, and Hamiltonian experiments."""

import numpy as np
import pytest

from lagcal.calibration import (
    CalibrationSample,
    DegenerateInput,
    FlowDegeneracy,
    NonLagrangianFrame,
    PerturbationSpec,
    _PolarFlow,
    bump_profile_d1,
    calib_check,
    det_identity_check,
    frame_quantities,
    hamiltonian_perturb,
    random_lagrangian_frame,
    random_lagrangian_frames,
    random_perturbations,
    rotate_frame_to_angle,
    theta0,
    volume_compare,
)
from lagcal.core import Signature, hol_volume, pseudo_unitary_sample
from lagcal.families import Catenoid, build_family
from lagcal.immersion import (
    ImmersionPatch,
    dvol,
    interior_samples,
    lagrangian_defect,
    make_flat_patch,
)

ALL_SIGS = [Signature(p, n) for n in (1, 2, 3, 4) for p in range(n + 1)]


def test_theta0_frozen_values():
    sig = Signature(1, 2)
    eye = np.eye(2, dtype=complex)
    assert theta0(eye, 0.0, sig) == pytest.approx(1.0)
    assert theta0(eye, np.pi / 2.0, sig) == pytest.approx(0.0, abs=1e-15)


def test_random_frames_are_lagrangian_and_satisfy_identity():
    rng = np.random.default_rng(0)
    for sig in ALL_SIGS:
        frames = random_lagrangian_frames(sig, 200, rng)
        q = frame_quantities(frames, sig)
        assert np.max(q["defect"]) < 1e-10
        rel = np.abs(q["dvol"] - q["absdet_m"]) / q["dvol"]
        assert np.max(rel) < 1e-9


def full_recheck_frames(sig, count, rng):
    """Reference redraw loop that recomputes every determinant each round.

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
    u = pseudo_unitary_sample(rng, sig, count)
    return real.astype(complex) @ u.swapaxes(-1, -2), rounds


@pytest.mark.parametrize("p, n", [(0, 1), (1, 2), (1, 3), (2, 4)])
@pytest.mark.parametrize("seed", [3, 11])
def test_redraw_of_bad_rows_matches_full_recheck(p, n, seed):
    sig = Signature(p, n)
    expected, rounds = full_recheck_frames(sig, 2000, np.random.default_rng(seed))
    assert rounds >= 2  # rows redrawn once came out bad again
    frames = random_lagrangian_frames(sig, 2000, np.random.default_rng(seed))
    assert np.array_equal(frames, expected)


def test_real_frame_has_zero_angle_and_tight_theta0():
    # the pseudo-unitary mixing factor set to the identity: a positively
    # oriented real frame has angle zero and saturates the inequality
    rng = np.random.default_rng(1)
    sig = Signature(1, 3)
    real = rng.uniform(-1.0, 1.0, (3, 3))
    while np.linalg.det(real) < 0.05:
        real = rng.uniform(-1.0, 1.0, (3, 3))
    frame = real.astype(complex)
    sample = calib_check(frame, 0.0, sig)
    assert np.angle(hol_volume(frame)) == pytest.approx(0.0, abs=1e-12)
    assert sample.beta == pytest.approx(0.0, abs=1e-12)
    assert sample.slack == pytest.approx(0.0, abs=1e-12)


def test_calibration_inequality_over_angle_grid():
    rng = np.random.default_rng(2)
    for sig in (Signature(0, 2), Signature(1, 2), Signature(1, 3)):
        frames = random_lagrangian_frames(sig, 100, rng)
        q = frame_quantities(frames, sig)
        for beta0 in np.linspace(-np.pi, np.pi, 16, endpoint=False):
            th = (np.exp(-1j * beta0) * q["omega_det"]).real
            slack = q["dvol"] - th
            assert np.min(slack / q["scale"]) > -1e-9


def test_equality_condition_after_rotation():
    rng = np.random.default_rng(3)
    sig = Signature(1, 2)
    beta0 = 0.7
    for frame in random_lagrangian_frames(sig, 50, rng):
        rotated = rotate_frame_to_angle(frame, beta0, sig)
        assert frame_quantities(rotated, sig)["defect"] < 1e-10
        sample = calib_check(rotated, beta0, sig)
        assert abs(sample.slack) / sample.dvol < 1e-10
        assert isinstance(sample, CalibrationSample)


def test_det_identity_check_on_lagrangian_frames():
    rng = np.random.default_rng(4)
    sig = Signature(2, 4)
    for frame in random_lagrangian_frames(sig, 30, rng):
        assert det_identity_check(frame, sig) < 1e-10


def test_identity_fails_on_non_lagrangian_witness():
    # The frame (e1, i e1) spans a complex line: dvol = 1 in definite
    # signature yet det of the coefficient matrix vanishes, so the
    # identity dvol = |det M| genuinely needs the Lagrangian hypothesis.
    sig = Signature(0, 2)
    witness = np.array([[1.0, 0.0], [1.0j, 0.0]], dtype=complex)
    q = frame_quantities(witness, sig)
    assert q["dvol"] == pytest.approx(1.0)
    assert q["absdet_m"] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(NonLagrangianFrame):
        calib_check(witness, 0.0, sig)
    with pytest.raises(NonLagrangianFrame):
        det_identity_check(witness, sig)


def linear_patch(frame, sig):
    """The patch u -> u @ frame, whose tangent frame is ``frame`` everywhere."""
    return ImmersionPatch(sig=sig, domain=np.tile([0.0, 1.0], (sig.n, 1)),
                          f=lambda u: np.asarray(u) @ frame, d1=lambda u: frame)


@pytest.mark.parametrize("p, n", [(0, 2), (1, 2), (1, 3), (2, 4)])
def test_batched_frame_quantities_match_pointwise_calls(p, n):
    sig = Signature(p, n)
    frames = random_lagrangian_frames(sig, 200, np.random.default_rng(5))
    zero_row = frames[0].copy()
    zero_row[-1] = 0.0
    repeated_row = frames[1].copy()  # still Lagrangian, but rank-deficient
    repeated_row[-1] = repeated_row[0]
    frames = np.concatenate([frames, [zero_row, repeated_row]])
    q = frame_quantities(frames, sig)
    u = np.full(n, 0.5)
    for k, frame in enumerate(frames):
        patch = linear_patch(frame, sig)
        assert q["defect"][k] == lagrangian_defect(patch, u)
        assert q["dvol"][k] == dvol(patch, u)
        assert q["degenerate"][k] == frame_quantities(frame, sig)["degenerate"]
    assert np.isfinite(q["defect"][-2])
    assert list(np.flatnonzero(q["degenerate"])) == [len(frames) - 2, len(frames) - 1]
    assert q["defect"][-1] <= 1e-9  # the Lagrangian check passes, the degeneracy check trips
    with pytest.raises(DegenerateInput):
        calib_check(repeated_row, 0.0, sig)


def test_degenerate_frame_rejected():
    sig = Signature(0, 2)
    frame = np.array([[1.0, 0.0], [2.0, 0.0]], dtype=complex)
    with pytest.raises(DegenerateInput):
        calib_check(frame, 0.0, sig)


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
    """The flow field written directly: index-array radial stencil with
    accumulated closures, numpy.fft, Gram entries as sums over components."""
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
    x1 = flow.base_x1 + du_x
    x2 = flow.base_x2 + du_y
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
], ids=["flat(1,2)", "catenoid(p=1,n=2)"])
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
    d = np.stack([v[..., 1], -v[..., 1]], axis=-1).astype(complex)
    assert not flow.degenerate
    with pytest.raises(FlowDegeneracy):
        flow._field(d)
    assert flow.degenerate


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


def test_flow_divergence_guard_trips_on_tight_bound():
    from lagcal.calibration import FlowDivergence

    with pytest.raises(FlowDivergence):
        hamiltonian_perturb(FLAT, CENTERED, ambient_bound=0.5)


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
