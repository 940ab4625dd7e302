"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured constants.
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    catenoid_combinations,
    circle_equivariant_spec,
    expanding_quadric_spec,
    hyperbola_product_spec,
    line_equivariant_spec,
    null_reparametrized_spiral,
    rotation_quadric_spec,
    spiral_equivariant_spec,
    traceless_diag_quadric_spec,
    varying_profile_quadric_spec,
)
from lagcal.calibration import (
    frame_quantities,
    random_lagrangian_frames,
    random_perturbations,
    rotate_frame_to_angle,
    volume_compare,
)
from lagcal.cli import main
from lagcal.core import (
    NULL_PLANE_BASIS,
    Signature,
    apply_J,
    circ_dist,
    circ_mean,
    circ_spread,
    plane_props,
    random_complex_plane,
    random_plane,
    random_totally_null_plane,
    spans_equal,
    symplectic_orthogonal,
    wrap_angle,
)
from lagcal.curvature import (
    curvature_sample,
    mean_curvature_sff,
    minimality_residual,
    surface_H_null_coords,
)
from lagcal.families import Catenoid, build_family, evolving_quadric_angle
from lagcal.immersion import (
    induced_metric,
    interior_samples,
    lagrangian_angle_at,
    metric_signature,
)

ALL_SIGNATURES = [Signature(p, n) for n in (1, 2, 3, 4) for p in range(n + 1)]


def _pass(num: int, text: str):
    print(f"\nPASS criterion {num}: {text}")


def test_criterion_01_calibration_inequality_bulk():
    t0 = time.perf_counter()
    per_pair = -(-100000 // len(ALL_SIGNATURES))
    rng = np.random.default_rng(11)
    worst_slack = np.inf
    worst_identity = 0.0
    worst_defect = 0.0
    total = 0
    for sig in ALL_SIGNATURES:
        frames = random_lagrangian_frames(sig, per_pair, rng)
        q = frame_quantities(frames, sig)
        worst_defect = max(worst_defect, float(np.max(q["defect"])))
        beta0 = rng.uniform(-np.pi, np.pi, per_pair)
        th = (np.exp(-1j * beta0) * q["omega_det"]).real
        abs_det = np.abs(q["omega_det"])
        slack = np.minimum(q["dvol"] - th, q["dvol"] - abs_det) / q["scale"]
        worst_slack = min(worst_slack, float(np.min(slack)))
        identity = np.abs(q["dvol"] - abs_det) / q["dvol"]
        worst_identity = max(worst_identity, float(np.max(identity)))
        total += per_pair
    elapsed = time.perf_counter() - t0
    assert total >= 100000
    assert worst_defect < 1e-9
    assert worst_slack >= -1e-9
    assert worst_identity < 1e-10
    assert elapsed <= 60.0
    _pass(1, f"{total} Lagrangian frames over {len(ALL_SIGNATURES)} signatures: "
             f"slack >= {worst_slack:.2e}, identity <= {worst_identity:.2e}, "
             f"{elapsed:.1f}s")


def test_criterion_02_equality_condition():
    rng = np.random.default_rng(22)
    count = 0
    worst = 0.0
    for sig in (Signature(0, 2), Signature(1, 2), Signature(1, 3), Signature(2, 4)):
        frames = random_lagrangian_frames(sig, 250, rng)
        beta0s = rng.uniform(-np.pi, np.pi, 250)
        q = frame_quantities(rotate_frame_to_angle(frames, beta0s, sig), sig)
        th = (np.exp(-1j * beta0s) * q["omega_det"]).real
        worst = max(worst, float(np.max(np.abs(q["dvol"] - th) / q["dvol"])))
        count += len(frames)
    assert count == 1000
    assert worst < 1e-10
    _pass(2, f"theta0 = dvol after rotation on {count} frames, max relative gap {worst:.2e}")


def _minimal_patches():
    patches = []
    for sig, eps in catenoid_combinations():
        name = f"catenoid(p={sig.p},n={sig.n},eps={eps:+d})"
        patches.append((name, build_family(Catenoid(sig=sig, epsilon=eps, c=1.0, sector=0))))
    patches.append(("product-null-curves", build_family(hyperbola_product_spec())))
    patches.append(("quadric tr M=0 (rotation, p=1)", build_family(rotation_quadric_spec())))
    patches.append(("quadric tr M=0 (diagonal, p=0)", build_family(traceless_diag_quadric_spec())))
    return patches


def test_criterion_03_minimal_families_are_minimal():
    worst = {}
    for k, (name, patch) in enumerate(_minimal_patches()):
        pts = interior_samples(patch, 1000, np.random.default_rng(33 + k))
        worst[name] = residual = minimality_residual(patch, pts)
        assert residual < 1e-6, (name, residual)
    top = max(worst.values())
    _pass(3, f"{len(worst)} minimal generators, residual <= {top:.2e} over 1000 points each")


def test_criterion_04_nonminimal_quadric_detected():
    spec = expanding_quadric_spec()
    patch = build_family(spec)
    residual = minimality_residual(patch, interior_samples(patch, 400, np.random.default_rng(44)))
    assert residual > 1e-2

    chart = patch.meta["chart"]
    slopes = []
    ss = np.linspace(-0.35, 0.35, 41)
    for t in np.linspace(chart.box[0, 0] + 0.05, chart.box[0, 1] - 0.05, 8):
        betas = np.array([lagrangian_angle_at(patch, np.array([t, s])) for s in ss])
        betas = np.unwrap(betas)
        slopes.append(np.polyfit(ss, betas, 1)[0])
    slope_err = max(abs(s - 2.0) for s in slopes)
    assert slope_err < 1e-6
    _pass(4, f"tr M = 2 quadric: residual {residual:.2e} > 1e-2, "
             f"angle slope 2 within {slope_err:.2e}")


def test_criterion_05_angle_formulas():
    rng = np.random.default_rng(55)
    worst_eq = 0.0
    for spec in (circle_equivariant_spec(2), circle_equivariant_spec(3),
                 line_equivariant_spec(), spiral_equivariant_spec()):
        patch = build_family(spec)
        gamma = patch.meta["gamma"]
        n = patch.sig.n
        for u in interior_samples(patch, 250, rng):
            s = u[-1]
            g, dg = gamma.jets(s, 1)
            law = np.angle(complex(dg) * complex(g) ** (n - 1))
            worst_eq = max(worst_eq, circ_dist(lagrangian_angle_at(patch, u), law))
    assert worst_eq < 1e-9

    offsets_report = []
    for spec in (rotation_quadric_spec(), varying_profile_quadric_spec()):
        patch = build_family(spec)
        chart = patch.meta["chart"]
        tt = np.linspace(chart.box[:, 0] + 0.02, chart.box[:, 1] - 0.02, 32)
        ss = np.linspace(*spec.s_interval, 32)
        offsets = np.empty((32, 32))
        for i, t in enumerate(tt):
            x = chart.jets(np.atleast_1d(t), 0)[0]
            for j, s in enumerate(ss):
                u = np.append(np.atleast_1d(t), s)
                offsets[i, j] = wrap_angle(
                    lagrangian_angle_at(patch, u) - evolving_quadric_angle(spec, s, x))
        spread = circ_spread(offsets.ravel())
        assert spread < 1e-8, spread
        offsets_report.append(circ_mean(offsets.ravel()))
    _pass(5, f"equivariant law pointwise <= {worst_eq:.2e}; quadric law offset constant, "
             f"measured constants {[f'{o:+.6f}' for o in offsets_report]} "
             f"(-pi/2 = {-np.pi / 2:+.6f})")


def test_criterion_06_rotation_quadric_cross_identification():
    c = 2.0
    quad = build_family(rotation_quadric_spec(c))
    prod = build_family(hyperbola_product_spec(c))
    chart = quad.meta["chart"]
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(100):
        s = rng.uniform(-0.3, 0.3)
        t = rng.uniform(0.5, 1.05)
        coord = np.exp(t) if chart.solve_index == 1 else (c / 2.0) * np.exp(-t)
        f_quad = np.asarray(quad.f(np.array([coord, s])))
        f_prod = np.asarray(prod.f(np.array([s + t, s - t])))
        worst = max(worst, float(np.max(np.abs(f_quad - f_prod))))
    assert worst < 1e-12
    _pass(6, f"evolving quadric equals gamma_1(u) + J gamma_2(v) at 100 points, "
             f"max gap {worst:.2e}")


def test_criterion_07_mean_curvature_cross_validation(family_catalog):
    rng = np.random.default_rng(77)
    worst = {}
    for name, patch in family_catalog:
        top = 0.0
        for u in interior_samples(patch, 100, rng, margin=0.08):
            top = max(top, curvature_sample(patch, u).discrepancy)
        worst[name] = top
        assert top < 1e-5, (name, top)

    null_patches = [("product-null-curves", build_family(hyperbola_product_spec())),
                    ("null spiral surface", null_reparametrized_spiral(0.6))]
    worst_null = 0.0
    for name, patch in null_patches:
        for u in interior_samples(patch, 100, rng, margin=0.08):
            gap = np.linalg.norm(surface_H_null_coords(patch, u) - mean_curvature_sff(patch, u))
            worst_null = max(worst_null, float(gap))
            assert worst_null < 1e-5, name
    top = max(worst.values())
    _pass(7, f"two H routes agree on {len(worst)} families (max {top:.2e}); "
             f"null-coordinate route agrees to {worst_null:.2e}")


def test_criterion_08_signature_lemma(family_catalog):
    rng = np.random.default_rng(88)
    checked = 0
    for name, patch in family_catalog:
        p = patch.sig.p
        for u in interior_samples(patch, 200, rng):
            pos, neg, null = metric_signature(induced_metric(patch, u))
            assert (neg, null) == (p, 0), (name, u, (pos, neg, null))
            checked += 1
    _pass(8, f"induced metric has exactly p negative directions at {checked} points")


@pytest.mark.slow
def test_criterion_09_volume_monotonicity():
    t0 = time.perf_counter()
    bases = [
        ("catenoid p=0", build_family(Catenoid(sig=Signature(0, 2), epsilon=1, c=1.0, sector=0))),
        ("product-null p=1", build_family(hyperbola_product_spec())),
    ]
    summary = []
    for k, (name, base) in enumerate(bases):
        specs = random_perturbations(base, 20, seed=99 + k)
        assert all(0.02 <= s.amplitude <= 0.2 for s in specs)
        report = volume_compare(base, specs, [48, 48], seed=99 + k)
        ok = [r for r in report.results if r.status == "ok"]
        assert len(ok) >= 15, (name, report.degenerate_count)
        slack = min(r.volume - report.base_volume for r in ok)
        assert slack >= -1e-6, (name, slack)
        summary.append(f"{name}: {len(ok)}/20 ok, min slack {slack:+.2e}")
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    _pass(9, "; ".join(summary) + f"; {elapsed:.0f}s")


def test_criterion_10_plane_lemmas():
    sig = Signature(1, 2)
    rng = np.random.default_rng(1010)
    builders = [
        lambda: random_plane(rng),
        lambda: random_totally_null_plane(rng, sig),
        lambda: random_lagrangian_frames(sig, 1, rng)[0],
        lambda: random_complex_plane(rng, null=bool(rng.integers(2)), sig=sig),
    ]
    for k in range(1000):
        plane = builders[k % 4]()
        props = plane_props(plane, sig, tol=1e-8)
        null_flag = props.totally_null
        orth_match = spans_equal(apply_J(plane), symplectic_orthogonal(plane, sig), tol=1e-8)
        assert null_flag == orth_match
        flags = (props.totally_null, props.lagrangian, props.complex_line)
        if sum(flags) >= 2:
            assert sum(flags) == 3

    # Constructed witnesses: each pair of properties forces the third,
    # and single-property planes show no spurious implication.
    for _ in range(50):
        witness = random_complex_plane(rng, null=True, sig=sig)
        props = plane_props(witness, sig, tol=1e-8)
        assert props.totally_null and props.lagrangian and props.complex_line
    singles = [
        (NULL_PLANE_BASIS, (True, False, False)),
        (np.eye(2, dtype=complex), (False, True, False)),
        (np.array([[0.0, 1.0], [0.0, 1.0j]]), (False, False, True)),
    ]
    for plane, expected in singles:
        props = plane_props(plane, sig)
        assert (props.totally_null, props.lagrangian, props.complex_line) == expected
    _pass(10, "1000 planes: totally-null iff J P equals the symplectic orthogonal; "
              "two-of-three closure holds with witnesses")


def test_criterion_11_reproducibility(tmp_path):
    config = {
        "signature": {"p": 1, "n": 2},
        "family": {"kind": "catenoid", "c": 1, "epsilon": -1, "sector": 0},
        "experiment": "verify",
        "samples": 200,
        "seed": 20240,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    for sub in ("first", "second"):
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / sub)]) == 0
    a = (tmp_path / "first" / "samples.csv").read_bytes()
    b = (tmp_path / "second" / "samples.csv").read_bytes()
    assert a == b
    ra = json.loads((tmp_path / "first" / "report.json").read_text())
    rb = json.loads((tmp_path / "second" / "report.json").read_text())
    assert ra == rb
    _pass(11, f"byte-identical CSV ({len(a)} bytes) and report across repeated seeded runs")
