"""Command line front end: config validation, reports, exit codes."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lagcal.cli import (
    CURVE,
    CURVATURE_SAMPLES,
    FAMILY_KINDS,
    MAX_N,
    MAX_SAMPLES,
    PAIR,
    PROFILE,
    SPHERE_CURVE,
    ConfigError,
    emit_report,
    main,
    parse_config,
    run_experiment,
)
from lagcal.core import STACK_BLOCK
from lagcal.curvature import minimality_residual
from lagcal.families import Curve, FamilySpecError, build_family

CATENOID_CONFIG = {
    "signature": {"p": 0, "n": 2},
    "family": {"kind": "catenoid", "c": 1, "epsilon": 1, "sector": 0},
    "experiment": "verify",
}


# the (1, 2) rotation quadric on a chart box so wide that most samples degenerate
WIDE_QUADRIC = {"signature": {"p": 1, "n": 2},
                "family": {"kind": "evolving-quadric", "matrix": [[0, -1], [1, 0]], "c": 2,
                           "chart_half_width": 1e6}}


def write_config(tmp_path, obj, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def test_parse_minimal_config_defaults():
    cfg = parse_config(json.dumps(CATENOID_CONFIG))
    assert cfg.samples == 1000
    assert cfg.seed == 42
    assert cfg.tol == 1e-9
    assert (cfg.signature.p, cfg.signature.n) == (0, 2)


def test_parse_rejects_bad_signature():
    bad = dict(CATENOID_CONFIG, signature={"p": 3, "n": 2})
    with pytest.raises(ConfigError, match="signature"):
        parse_config(json.dumps(bad))


def test_parse_rejects_unknown_keys():
    bad = dict(CATENOID_CONFIG, extra=1)
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(json.dumps(bad))
    bad = dict(CATENOID_CONFIG, family={"kind": "catenoid", "c": 1, "bogus": 2})
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(json.dumps(bad))


def test_parse_rejects_non_self_adjoint_matrix():
    # the family generator judges the matrix, naming family.matrix
    bad = {
        "signature": {"p": 0, "n": 2},
        "family": {"kind": "evolving-quadric", "matrix": [[0, -1], [1, 0]], "c": 1},
        "experiment": "verify",
    }
    with pytest.raises(ConfigError, match="residual"):
        run_experiment(parse_config(json.dumps(bad)))


def test_verify_experiment_passes_on_catenoid(tmp_path):
    cfg = parse_config(json.dumps(dict(CATENOID_CONFIG, samples=60)))
    report = run_experiment(cfg)
    assert report.passed
    assert report.max_defect < 1e-10
    assert report.residual < 1e-6
    json_path, csv_path = emit_report(report, str(tmp_path))
    payload = json.loads((tmp_path / "report.json").read_text())
    for key in ("config", "seed", "version", "max_defect", "beta_mean", "beta_spread",
                "residual", "volumes", "slack_min", "identity_max_residual",
                "degenerate_count", "samples_table"):
        assert key in payload
    assert payload["samples_table"] == "samples.csv"
    header = (tmp_path / "samples.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["index", "u0", "u1"]


def test_angle_experiment_on_equivariant(tmp_path):
    config = {
        "signature": {"p": 0, "n": 2},
        "family": {"kind": "equivariant", "epsilon": 1,
                   "gamma": {"form": "circle", "interval": [0.1, 1.4]}},
        "experiment": "angle",
        "samples": 40,
    }
    report = run_experiment(parse_config(json.dumps(config)))
    assert report.passed
    assert report.residual < 1e-9
    # beta - (2 s + pi/2) vanishes mod 2 pi: offsets against the law are zero
    assert abs(report.beta_mean) < 1e-9 or abs(abs(report.beta_mean) - np.pi) < 1e-9


def test_calibrate_experiment():
    config = {"signature": {"p": 1, "n": 2}, "experiment": "calibrate", "samples": 400}
    report = run_experiment(parse_config(json.dumps(config)))
    assert report.passed
    assert report.slack_min >= -1e-9
    assert report.identity_max_residual < 1e-10
    assert report.degenerate_count == 0


def strict_json(text):
    """json.loads that rejects NaN and infinities, as strict JSON parsers do."""
    def reject(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("error")
def test_calibrate_counts_degenerate_frames(tmp_path, monkeypatch):
    import lagcal.cli as cli

    draw = cli.random_lagrangian_frames

    def with_degenerate_tail(sig, count, rng):
        frames = draw(sig, count, rng)
        frames[-2, -1] = 0.0             # a zero row
        frames[-1, -1] = frames[-1, 0]   # a repeated row: still Lagrangian
        return frames

    monkeypatch.setattr(cli, "random_lagrangian_frames", with_degenerate_tail)
    config = {"signature": {"p": 1, "n": 3}, "experiment": "calibrate", "samples": 50}
    path = write_config(tmp_path, config)
    assert main(["calibrate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    # the statistics skip the two flagged frames, so report.json is strict JSON
    payload = strict_json((tmp_path / "o" / "report.json").read_text())
    assert payload["degenerate_count"] == 2 and payload["passed"] is False
    assert payload["slack_min"] >= -1e-9 and payload["identity_max_residual"] < 1e-10
    # the flagged rows hold NaN ratios, also the repeated row, whose scale is nonzero
    with open(tmp_path / "o" / "samples.csv") as handle:
        table = list(csv.DictReader(handle))
    ratios = [[row[key] for key in ("slack", "identity_residual")] for row in table]
    assert ratios[-2:] == [["nan", "nan"], ["nan", "nan"]]
    assert all(math.isfinite(float(cell)) for cell in np.ravel(ratios[:-2]))

    # with every frame flagged there is no statistic to report
    monkeypatch.setattr(cli, "random_lagrangian_frames",
                        lambda sig, count, rng: np.zeros((count, sig.n, sig.n), complex))
    assert main(["calibrate", "--config", str(path), "--out", str(tmp_path / "z")]) == 2
    payload = strict_json((tmp_path / "z" / "report.json").read_text())
    assert payload["degenerate_count"] == 50
    assert payload["slack_min"] is None and payload["identity_max_residual"] is None


def test_plane_props_experiment():
    config = {"signature": {"p": 1, "n": 2}, "experiment": "plane-props", "samples": 80}
    report = run_experiment(parse_config(json.dumps(config)))
    assert report.passed
    assert report.residual == 0.0


def test_cli_exit_codes_and_overrides(tmp_path):
    path = write_config(tmp_path, dict(CATENOID_CONFIG, samples=40))
    out = tmp_path / "results"
    code = main(["verify", "--config", str(path), "--out", str(out)])
    assert code == 0
    # an impossible tolerance must flip the exit code to 2
    code = main(["verify", "--config", str(path), "--out", str(out), "--tol", "1e-30"])
    assert code == 2
    # unreadable config and invalid values give usage errors
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 1
    bad = write_config(tmp_path, {"signature": {"p": 5, "n": 2}}, "bad.json")
    assert main(["verify", "--config", str(bad)]) == 1


def test_cli_entry_point_runs_as_module(tmp_path):
    path = write_config(tmp_path, dict(CATENOID_CONFIG, samples=25))
    proc = subprocess.run(
        [sys.executable, "-m", "lagcal.cli", "verify", "--config", str(path),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "report:" in proc.stdout


def test_seeded_runs_are_byte_identical(tmp_path):
    path = write_config(tmp_path, dict(CATENOID_CONFIG, samples=50))
    for directory in ("a", "b"):
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / directory),
                     "--seed", "7"]) == 0
    csv_a = (tmp_path / "a" / "samples.csv").read_bytes()
    csv_b = (tmp_path / "b" / "samples.csv").read_bytes()
    assert csv_a == csv_b
    assert b"\r" not in csv_a


def test_volume_compare_cli_small(tmp_path):
    config = {
        "signature": {"p": 0, "n": 2},
        "family": {"kind": "flat"},
        "experiment": "volume-compare",
        "samples": 3,
        "grid": [24, 24],
    }
    path = write_config(tmp_path, config)
    code = main(["volume-compare", "--config", str(path), "--out", str(tmp_path / "v")])
    assert code == 0
    payload = json.loads((tmp_path / "v" / "report.json").read_text())
    assert len(payload["volumes"]) == 4
    assert payload["slack_min"] >= -1e-6


def test_angle_experiment_on_evolving_quadric_reports_offset():
    config = {
        "signature": {"p": 1, "n": 2},
        "family": {"kind": "evolving-quadric", "matrix": [[0, -1], [1, 0]], "c": 2,
                   "r": {"form": "constant"}, "s_interval": [-0.3, 0.3],
                   "chart_center": [2.0, 0.5], "chart_half_width": 0.4},
        "experiment": "angle",
        "samples": 50,
    }
    report = run_experiment(parse_config(json.dumps(config)))
    assert report.passed
    assert report.residual < 1e-9
    assert report.beta_mean == pytest.approx(-np.pi / 2, abs=1e-8)


def test_curvature_experiment_on_hopf():
    config = {
        "signature": {"p": 0, "n": 2},
        "family": {"kind": "hopf",
                   "gamma": {"form": "torus", "alpha": 0.7853981633974483,
                             "k1": 1.0, "k2": 2.0}},
        "experiment": "curvature",
        "samples": 40,
    }
    report = run_experiment(parse_config(json.dumps(config)))
    assert report.passed
    assert report.residual < 1e-5


EQUIVARIANT_LINE = {"kind": "equivariant", "epsilon": 1,
                    "gamma": {"form": "line", "z0": 1, "z1": [0, 1], "interval": [-0.8, 0.8]}}
HOPF_GREAT_CIRCLE = {"kind": "hopf", "gamma": {"form": "great-circle"}}


@pytest.mark.parametrize("experiment, doc, args, fieldname", [
    pytest.param("verify", {}, ["--samples", "0"], "samples", id="samples-flag-0"),
    pytest.param("volume-compare", {}, ["--samples", "65"], "samples", id="samples-flag-65"),
    pytest.param("verify", {}, ["--seed", "-1"], "seed", id="seed-flag-negative"),
    pytest.param("verify", {"samples": True}, [], "samples", id="samples-true"),
    pytest.param("verify", {"seed": True}, [], "seed", id="seed-true"),
    pytest.param("verify", {}, ["--tol", "nan"], "tol", id="tol-flag-nan"),
    pytest.param("verify", {}, ["--samples", "abc"], "samples", id="samples-flag-abc"),
    pytest.param("verify", {}, ["--seed", "1.5"], "seed", id="seed-flag-1.5"),
    pytest.param("verify", {}, ["--tol", "x"], "tol", id="tol-flag-x"),
    pytest.param("verify", {"tol": float("nan")}, [], "tol", id="tol-nan"),
    pytest.param("volume-compare", {"grid": [16, 32, 8]}, [], "grid", id="grid-length-3"),
    pytest.param("volume-compare", {"grid": [1000000]}, [], "grid", id="grid-too-many-nodes"),
    pytest.param("volume-compare", {"signature": {"p": 1, "n": 3}, "grid": [8]}, [],
                 "signature.n", id="volume-compare-n-3"),
    # validation refuses the dimension before anything of size n is allocated
    pytest.param("verify", {"signature": {"p": 0, "n": 10 ** 10}, "family": {"kind": "flat"}},
                 [], "signature.n", id="n-1e10"),
    pytest.param("calibrate", {"signature": {"p": 0, "n": 10 ** 10}, "family": None},
                 [], "signature.n", id="calibrate-n-1e10"),
    # every integer field takes ints only, not integral floats
    pytest.param("verify", {"signature": {"p": 0, "n": 2.0}}, [], "signature.n",
                 id="n-integral-float"),
    pytest.param("verify", {"family": {**CATENOID_CONFIG["family"], "epsilon": 1.0}}, [],
                 "family.epsilon", id="epsilon-integral-float"),
    # the base of a volume comparison must be minimal; the Hopf great circle's
    # probe angles are evenly spread and have no circular mean
    pytest.param("volume-compare", {"family": EQUIVARIANT_LINE, "grid": [8]}, [], "family",
                 id="volume-compare-line-equivariant"),
    pytest.param("volume-compare", {"family": HOPF_GREAT_CIRCLE, "grid": [8]}, [], "family",
                 id="volume-compare-hopf"),
    # the base angle's probe does not depend on the grid: one cell does not hide it
    pytest.param("volume-compare", {"family": EQUIVARIANT_LINE, "grid": [1]}, [], "family",
                 id="volume-compare-line-equivariant-grid-1"),
    # an interval or a chart box whose width overflows
    pytest.param("verify", {"family": {**HOPF_GREAT_CIRCLE,
                                       "gamma": {"form": "great-circle",
                                                 "interval": [-1e308, 1e308]}}},
                 [], "family.gamma.interval", id="interval-width-overflows"),
    pytest.param("verify", {"signature": {"p": 1, "n": 2},
                            "family": {"kind": "evolving-quadric", "matrix": [[0, -1], [1, 0]],
                                       "c": 2, "chart_half_width": 1e308}},
                 [], "family.chart_half_width", id="chart-box-width-overflows"),
    pytest.param("verify", {"signature": {"p": 1, "n": 2},
                            "family": {"kind": "evolving-quadric", "matrix": [[0, -1], [1, 0]],
                                       "c": 2, "chart_half_width": 1e200}},
                 [], "family.chart_center, family.chart_half_width",
                 id="chart-box-form-overflows"),
    # a chart center whose residual overflows misses the quadric; a box whose
    # discriminant is NaN has no chart root
    pytest.param("verify", {"signature": {"p": 1, "n": 3},
                            "family": {"kind": "catenoid", "c": 1,
                                       "chart_center": [1e200, 1e200, 1e200]}},
                 [], "family.chart_center", id="chart-center-1e200"),
    pytest.param("verify", {"signature": {"p": 1, "n": 3},
                            "family": {"kind": "catenoid", "c": 1, "chart_half_width": 1e200}},
                 [], "family.chart_center, family.chart_half_width", id="chart-half-width-1e200"),
    # the curve itself overflows at 1e308; at 1e200 only the frames' volume element does
    pytest.param("verify", {"family": {"kind": "catenoid", "c": 1e308}}, [], "family.c",
                 id="catenoid-c-1e308"),
    pytest.param("verify", {"family": {"kind": "catenoid", "c": 1e200}}, [], "family.c",
                 id="catenoid-c-1e200"),
    # a profile or radial profile whose frames' volume element overflows
    pytest.param("verify", {"family": {"kind": "equivariant",
                                       "gamma": {"form": "line", "z0": 1e200, "z1": [0, 1e200],
                                                 "interval": [-0.8, 0.8]}}},
                 [], "family.gamma", id="equivariant-gamma-1e200"),
    pytest.param("verify", {"signature": {"p": 1, "n": 2},
                            "family": {"kind": "evolving-quadric", "matrix": [[0, -1], [1, 0]],
                                       "c": 2, "r": {"form": "constant", "value": 1e308}}},
                 [], "family.r", id="evolving-quadric-r-1e308"),
    # a torus curve with k1 = k2 follows the circle action: its frames lose rank everywhere
    pytest.param("verify", {"family": {"kind": "hopf", "gamma": {"form": "torus", "alpha": 0.5,
                                                                  "k1": 1.7, "k2": 1.7}}},
                 [], "family.gamma", id="hopf-torus-along-the-circle-action"),
    # a quadric box that builds but whose samples degenerate while verify runs: at
    # half-width 1e20 the induced metric of the minimality residual, at 1e6 on 20
    # samples the circular mean of the angles
    pytest.param("verify", {**WIDE_QUADRIC, "samples": None,
                            "family": {**WIDE_QUADRIC["family"], "chart_half_width": 1e20}},
                 [], "family", id="quadric-box-1e20-degenerate-metric"),
    pytest.param("verify", {**WIDE_QUADRIC, "samples": 20}, [], "family",
                 id="quadric-box-1e6-no-circular-mean"),
])
def test_cli_rejects_malformed_values(tmp_path, capsys, experiment, doc, args, fieldname):
    # command line overrides and document values pass the same validation;
    # the error line is all that is printed, with no warning on the way
    doc = {**CATENOID_CONFIG, "samples": 5, **doc}  # a None value drops its key
    path = write_config(tmp_path, {k: v for k, v in doc.items() if v is not None})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([experiment, "--config", str(path), "--out", str(tmp_path / "o"), *args])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fieldname}: ")
    assert err.count("\n") == 1
    assert "RuntimeWarning" not in err


def test_wide_quadric_box_counts_its_degenerate_samples(tmp_path):
    # at the default 1000 samples the angles keep a circular mean and the
    # metric residual is computable: the degenerate signatures are counted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--config", str(write_config(tmp_path, WIDE_QUADRIC)),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["degenerate_count"] == 975


def test_catenoid_constant_1e100_stays_valid(tmp_path):
    doc = {**CATENOID_CONFIG, "family": {"kind": "catenoid", "c": 1e100}, "samples": 5}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "samples.csv", newline="") as handle:
        assert all(math.isfinite(float(row["dvol"])) for row in csv.DictReader(handle))


@pytest.mark.parametrize("signature, family", [
    pytest.param({"p": 0, "n": 2}, {"kind": "flat"}, id="flat"),
    pytest.param({"p": 1, "n": 2},
                 {"kind": "product-null-curves",
                  "gamma1": {"form": "real-exp", "c1": [0.5, 1], "c2": [0.5, -1],
                             "interval": [0.05, 1.5]},
                  "gamma2": {"form": "real-exp", "c1": [-0.5, 1], "c2": [-0.5, -1],
                             "interval": [-1.5, -0.05]}}, id="product-null-curves"),
    pytest.param({"p": 0, "n": 2}, HOPF_GREAT_CIRCLE, id="hopf"),
])
def test_angle_needs_a_family_with_an_angle_law(tmp_path, capsys, signature, family):
    doc = {"signature": signature, "family": family, "samples": 5}
    # the family itself is valid
    assert main(["verify", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "v")]) == 0
    capsys.readouterr()
    assert main(["angle", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "a")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: family: the angle experiment needs an angle law")
    assert err.count("\n") == 1


EVOLVING_QUADRIC = {"kind": "evolving-quadric", "matrix": [[1, 0], [0, -1]], "c": 1,
                    "chart_center": [1.0, 0.0], "chart_half_width": 0.3}


def without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize("signature, family, fieldname", [
    pytest.param({"p": 1, "n": 3}, {**CATENOID_CONFIG["family"], "epsilon": "a"},
                 "family.epsilon", id="epsilon-string"),
    pytest.param({"p": 1, "n": 3}, {**CATENOID_CONFIG["family"], "chart_center": "abc"},
                 "family.chart_center", id="chart-center-string"),
    pytest.param({"p": 1, "n": 3}, {**CATENOID_CONFIG["family"], "chart_center": [1, 2]},
                 "family.chart_center", id="chart-center-short"),
    pytest.param({"p": 0, "n": 2}, without(EVOLVING_QUADRIC, "c"),
                 "family.c", id="evolving-quadric-without-c"),
    pytest.param({"p": 0, "n": 2},
                 {**EQUIVARIANT_LINE, "gamma": without(EQUIVARIANT_LINE["gamma"], "z0")},
                 "family.gamma.z0", id="line-without-z0"),
])
def test_cli_names_malformed_family_fields(tmp_path, capsys, signature, family, fieldname):
    path = write_config(tmp_path, {"signature": signature, "family": family, "samples": 5})
    # the unbroken documents pass validation
    good = {"family.epsilon": CATENOID_CONFIG["family"],
            "family.chart_center": CATENOID_CONFIG["family"],
            "family.c": EVOLVING_QUADRIC, "family.gamma.z0": EQUIVARIANT_LINE}[fieldname]
    parse_config(json.dumps({"signature": signature, "family": good, "experiment": "verify"}))
    code = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {fieldname}: ")


@pytest.mark.parametrize("change, fieldname", [
    pytest.param({"family": {"sector": 3}}, "family.sector, family.c",
                 id="sector-sign-against-c"),
    pytest.param({"signature": {"p": 2, "n": 2}}, "signature, family.epsilon",
                 id="empty-quadric"),
    pytest.param({"family": {"chart_half_width": 2}},
                 "family.chart_center, family.chart_half_width", id="chart-leaves-quadric"),
    pytest.param({"signature": {"n": 100}}, "signature.n", id="sector-too-narrow"),
    pytest.param({"family": {"chart_center": [1, 2]}}, "family.chart_center",
                 id="chart-center-off-quadric"),
    pytest.param({"family": {"c": 1e-320}}, "family.c", id="curve-meets-origin"),
])
def test_cli_names_fields_of_family_constraints(tmp_path, capsys, change, fieldname):
    # each document passes validation; the family generator rejects it in run_experiment
    doc = {**CATENOID_CONFIG, "samples": 2}
    for key, values in change.items():
        doc[key] = {**doc[key], **values}
    parse_config(json.dumps(doc))
    code = main(["verify", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fieldname}: ")
    assert err.count("\n") == 1


def test_family_errors_that_name_no_field_name_the_family(tmp_path, capsys, monkeypatch):
    # e.g. the evolving-quadric angle law's check, which names no spec field
    import lagcal.cli as cli

    def degenerate_law(spec):
        raise FamilySpecError("angle law undefined at a degenerate quadric point")

    monkeypatch.setattr(cli, "build_family", degenerate_law)
    code = main(["verify", "--config", str(write_config(tmp_path, CATENOID_CONFIG)),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: family: angle law undefined at a degenerate quadric point\n")


@pytest.mark.parametrize("samples", [20, CURVATURE_SAMPLES + 5])
def test_verify_residual_scores_its_own_samples(tmp_path, samples):
    # the residual is minimality_residual on the first min(samples, 300) points
    # of samples.csv; the line equivariant is not minimal, so it is far from 0
    doc = {"signature": {"p": 0, "n": 2}, "family": EQUIVARIANT_LINE, "samples": samples}
    assert main(["verify", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "samples.csv", newline="") as handle:
        pts = np.array([[float(row["u0"]), float(row["u1"])] for row in csv.DictReader(handle)])
    assert len(pts) == samples
    residual = json.loads((tmp_path / "o" / "report.json").read_text())["residual"]
    spec = parse_config(json.dumps({**doc, "experiment": "verify"})).spec
    expected = minimality_residual(build_family(spec), pts[:CURVATURE_SAMPLES])
    assert residual == expected > 0.1


@pytest.mark.parametrize("family", [
    pytest.param(CATENOID_CONFIG["family"], id="catenoid"),
    pytest.param({"kind": "equivariant", "gamma": {"form": "circle"}}, id="equivariant"),
    pytest.param({"kind": "evolving-quadric", "matrix": [[1]], "c": 1}, id="evolving-quadric"),
])
def test_cli_names_the_dimension_of_quadric_chart_families(tmp_path, capsys, family):
    # a quadric chart solves for one coordinate over the n - 1 others: n = 1 leaves none
    doc = {"signature": {"p": 0, "n": 1}, "family": family, "samples": 2}
    parse_config(json.dumps({**doc, "experiment": "verify"}))
    code = main(["verify", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: signature.n: ") and err.count("\n") == 1, err


def catenoid_sweep():
    """verify documents of every catenoid with n in {2, 3, 4}: each p, both
    epsilon and each sector, with the sign of c that the sector carries."""
    for n in (2, 3, 4):
        for p in range(n + 1):
            for epsilon in (1, -1):
                for sector in range(2 * n):
                    family = {"kind": "catenoid", "epsilon": epsilon, "sector": sector,
                              "c": (-1) ** sector}
                    yield {"signature": {"p": p, "n": n}, "family": family,
                           "experiment": "verify", "samples": 4}


def test_every_catenoid_with_a_non_empty_quadric_is_minimal_lagrangian():
    # the paper's equivariant characterization: Im(gamma^n) = c on the
    # quadric <x, x>_p = epsilon, which is empty for epsilon = 1 at p = n
    # and for epsilon = -1 at p = 0
    minimal = empty = 0
    for doc in catenoid_sweep():
        p, n = doc["signature"]["p"], doc["signature"]["n"]
        cfg = parse_config(json.dumps(doc))
        if p == (n if doc["family"]["epsilon"] == 1 else 0):
            with pytest.raises(ConfigError) as info:
                run_experiment(cfg)
            assert "family.epsilon" in info.value.fieldname.split(", "), doc
            empty += 1
        else:
            report = run_experiment(cfg)
            assert report.passed and report.degenerate_count == 0, doc
            assert report.residual <= 1e-9, doc
            minimal += 1
    assert (minimal, empty) == (116, 36)


# The two hyperbola branches (e^u / 2, e^-u / 2) and (-e^v / 2, -e^-v / 2) in the
# plane null-x1y2: their velocities are parallel only where u = v, which the
# intervals keep apart.  test_fuzzed_families_name_the_bad_field runs it through verify.
PRODUCT_NULL = {"kind": "product-null-curves",
                "gamma1": {"form": "real-exp", "c1": [0.5, 1], "c2": [0.5, -1],
                           "interval": [0.05, 1.5]},
                "gamma2": {"form": "real-exp", "c1": [-0.5, 1], "c2": [-0.5, -1],
                           "interval": [-1.5, -0.05]}}


@pytest.mark.parametrize("signature, family, fieldname", [
    pytest.param({"p": 0, "n": 2}, {**without(EVOLVING_QUADRIC, "chart_center"), "c": 0},
                 "family.c", id="evolving-quadric-cone"),
    pytest.param({"p": 0, "n": 2}, {**EVOLVING_QUADRIC, "r": {"form": "constant", "value": 0}},
                 "family.r", id="zero-profile"),
    pytest.param({"p": 0, "n": 2},
                 {**EVOLVING_QUADRIC, "r": {"form": "exp", "rate": 0.3, "scale": -1}},
                 "family.r", id="negative-profile"),
    pytest.param({"p": 1, "n": 3}, PRODUCT_NULL, "signature.n", id="product-null-in-n3"),
    pytest.param({"p": 1, "n": 2}, {**PRODUCT_NULL, "plane": {"basis": [[1, 0], [2, 0]]}},
                 "family.plane", id="rank-deficient-plane"),
    pytest.param({"p": 0, "n": 2},
                 {"kind": "evolving-quadric", "matrix": [[1, 0], [0, 2]], "c": 1,
                  "s_interval": [-1e5, 1e5]},
                 "family.matrix, family.s_interval", id="exponential-out-of-reach"),
    pytest.param({"p": 1, "n": 2},
                 {**PRODUCT_NULL, "gamma2": PRODUCT_NULL["gamma1"]},
                 "family.gamma1, family.gamma2", id="parallel-null-velocities"),
    pytest.param({"p": 0, "n": 2},
                 {**EQUIVARIANT_LINE, "gamma": {**EQUIVARIANT_LINE["gamma"], "z1": 0}},
                 "family.gamma", id="stationary-line"),
    pytest.param({"p": 0, "n": 2},
                 {"kind": "equivariant",
                  "gamma": {"form": "exp", "z0": 1, "rate": 0, "interval": [0, 1]}},
                 "family.gamma", id="stationary-exp"),
    pytest.param({"p": 0, "n": 2},
                 {"kind": "equivariant",
                  "gamma": {"form": "samples", "s": [0, 0.3, 0.6, 1], "values": [1, 1, 1, 1]}},
                 "family.gamma", id="stationary-samples"),
    # the build probes the box point of least chart root, where these charts have none
    pytest.param({"p": 0, "n": 2},
                 {**EQUIVARIANT_LINE, "chart_center": [0.7071067811865476, 0.7071067811865476]},
                 "family.chart_center, family.chart_half_width", id="box-outside-chart"),
    pytest.param({"p": 1, "n": 3},
                 {"kind": "catenoid", "c": 1, "chart_center": [0, 0.7, 0.714142842854285]},
                 "family.chart_center, family.chart_half_width", id="box-inside-without-root"),
    pytest.param({"p": 0, "n": 40}, {"kind": "equivariant", "gamma": {"form": "circle"}},
                 "family.chart_center, family.chart_half_width", id="equivariant-n-40"),
])
def test_cli_names_fields_of_other_family_constraints(tmp_path, capsys, signature, family,
                                                      fieldname):
    doc = {"signature": signature, "family": family, "samples": 2}
    parse_config(json.dumps({**doc, "experiment": "verify"}))
    code = main(["verify", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fieldname}: ")
    assert err.count("\n") == 1


def product_null(**gamma1):
    return {**PRODUCT_NULL, "gamma1": {**PRODUCT_NULL["gamma1"], **gamma1}}


@pytest.mark.parametrize("signature, family, fieldname", [
    *(pytest.param({"p": 1, "n": 2},
                   {"kind": "evolving-quadric", "matrix": [[0, -1], [1, 0]], "c": 2,
                    "r": {"form": "constant", "value": value}},
                   "family.r", id=f"{value}") for value in (1e200, 1e308)),
    pytest.param({"p": 0, "n": 2},
                 {"kind": "hopf", "gamma": {"form": "torus", "alpha": 0.5, "k1": 1, "k2": 1e300}},
                 "family.gamma", id="hopf-torus-k2-1e300"),
    pytest.param({"p": 1, "n": 2}, product_null(interval=[0.05, 800]),
                 "family.gamma1, family.gamma2", id="product-null-interval-800"),
    pytest.param({"p": 1, "n": 2}, product_null(c1=[1e200, 1]),
                 "family.gamma1, family.gamma2", id="product-null-c1-1e200"),
])
def test_cli_rejects_an_overflowing_frame(tmp_path, capsys, signature, family, fieldname):
    # a curve this large overflows the tangent frame: the build's probe of the
    # frames names it, before any sample and with no warning
    doc = {"signature": signature, "family": family, "samples": 5}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fieldname}: the volume element of the frames overflows")
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("experiment", ["calibrate", "plane-props"])
def test_family_free_experiments_reject_a_family(tmp_path, capsys, experiment):
    doc = {"signature": {"p": 1, "n": 2}, "samples": 4, "family": {"kind": "bogus", "x": [1]}}
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps({**doc, "experiment": experiment}))
    assert info.value.fieldname == "family"
    code = main([experiment, "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: family: ")
    assert not (tmp_path / "o").exists()


def spline_sampled_families():
    """The "samples" forms: a spiral profile gamma and the two hyperbola
    branches of the product-null example, through 41 samples each."""
    s = np.linspace(-0.5, 0.5, 41)
    gamma = np.exp(complex(np.cos(0.6), np.sin(0.6)) * s)
    u, v = np.linspace(0.05, 1.5, 41), np.linspace(-1.5, -0.05, 41)
    return [
        {"kind": "equivariant", "epsilon": 1,
         "gamma": {"form": "samples", "s": s.tolist(),
                   "values": [[z.real, z.imag] for z in gamma]}},
        {"kind": "product-null-curves",
         "gamma1": {"form": "samples", "u": u.tolist(),
                    "values": np.stack([0.5 * np.exp(u), 0.5 * np.exp(-u)], -1).tolist()},
         "gamma2": {"form": "samples", "u": v.tolist(),
                    "values": np.stack([-0.5 * np.exp(v), -0.5 * np.exp(-v)], -1).tolist()}},
    ]


def test_verify_passes_on_spline_sampled_curves(tmp_path):
    for k, family in enumerate(spline_sampled_families()):
        doc = {"signature": {"p": 1, "n": 2}, "family": family, "samples": 30}
        out = tmp_path / f"o{k}"
        assert main(["verify", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 0, family["kind"]
        assert json.loads((out / "report.json").read_text())["max_defect"] < 1e-12


def sampled_gamma(s, values=None):
    values = [[1.0, 0.1 * x] for x in s] if values is None else values
    return {"kind": "equivariant", "epsilon": 1,
            "gamma": {"form": "samples", "s": s, "values": values}}


def sampled_pair(u, values=None, which="gamma1"):
    values = [[1.0 + x, 1.0 - x] for x in u] if values is None else values
    return {**PRODUCT_NULL, which: {"form": "samples", "u": u, "values": values}}


@pytest.mark.parametrize("family, fieldname", [
    pytest.param(sampled_gamma([0.0, 0.5, 1.0]), "family.gamma", id="gamma-3-points"),
    pytest.param(sampled_gamma([0.0, 1.0]), "family.gamma", id="gamma-2-points"),
    pytest.param(sampled_gamma([0.0, 0.5, 0.5, 1.0]), "family.gamma", id="gamma-repeated-s"),
    pytest.param(sampled_gamma([0.0, 0.7, 0.5, 1.0]), "family.gamma", id="gamma-unsorted-s"),
    pytest.param(sampled_gamma([0.0, 0.3, 0.6, 1.0], [1, 1, 1]), "family.gamma",
                 id="gamma-3-values-for-4-points"),
    pytest.param(sampled_pair([0.0, 0.2, 0.4]), "family.gamma1", id="pair-3-points"),
    pytest.param(sampled_pair([0.0, -0.2, 0.2, 0.4], which="gamma2"), "family.gamma2",
                 id="pair-unsorted-u"),
    pytest.param(sampled_pair([0.0, 0.1, 0.2, 0.3], [[1, 1]] * 5), "family.gamma1",
                 id="pair-5-values-for-4-points"),
])
def test_cli_rejects_bad_sample_sets(tmp_path, capsys, family, fieldname):
    # the spline needs 4 or more points, strictly increasing s, one value per point
    doc = {"signature": {"p": 1, "n": 2}, "family": family, "samples": 5}
    code = main(["verify", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fieldname}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("signature", [{"p": 1, "n": 3}, {"p": 1, "n": 2}])
def test_cli_rejects_hopf_outside_its_signature(tmp_path, capsys, signature):
    doc = {"signature": signature, "samples": 2,
           "family": {"kind": "hopf", "gamma": {"form": "great-circle"}}}
    parse_config(json.dumps({**doc, "signature": {"p": 0, "n": 2}, "experiment": "verify"}))
    code = main(["verify", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: signature: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["bogus", "--config", "c.json"], id="unknown-experiment"),
    pytest.param(["verify"], id="missing-config"),
    pytest.param(["verify", "--config", "c.json", "--bogus"], id="unknown-flag"),
    pytest.param(["verify", "--config", "c.json", "--seed"], id="flag-without-value"),
])
def test_cli_usage_errors_exit_1(capsys, argv):
    # exit code 2 is reserved for threshold violations
    assert main(argv) == 1
    assert "usage: lagcal" in capsys.readouterr().err
    assert main(["--help"]) == 0


# Small configs of every experiment.  The catenoid experiments run at
# (p, n) = (1, 3) with 20 samples, calibrate with 200 samples, plane-props at
# (1, 2) and volume-compare on the README catenoid at (0, 2) with two
# competitors on a 24 x 24 grid; all at seed 11.
def small_config(experiment):
    config = {"signature": {"p": 1, "n": 3}, "experiment": experiment, "seed": 11,
              "samples": 20}
    if experiment == "calibrate":
        config["samples"] = 200
    elif experiment == "plane-props":
        config["signature"] = {"p": 1, "n": 2}
    elif experiment == "volume-compare":
        config.update(signature={"p": 0, "n": 2}, samples=2, grid=[24],
                      family=CATENOID_CONFIG["family"])
    else:
        config["family"] = CATENOID_CONFIG["family"]
    return config


# sha256 of report.json and samples.csv for the small configs.  The digests
# pin the output bits on one numpy / BLAS build: a change that moves one must
# state the size of the numerical drift, and another build may round
# differently and fail here with lagcal unchanged.
OUTPUT_DIGESTS = {
    "verify": ("06c6126ae7464aba584d62d193aa7b446b44a149e874f64702a704d1a6092bfd",
               "d9049b6dc92accf6719d21008801dec5c513ac2d7125ef3a6af3c92a2a3a2848"),
    "angle": ("75924409263b482c7c1a24b4307db7e883cd03a732fd2e690a17f63dba79146e",
              "f5b382f8af238ada11fc2180a9ddd282cdd80ef0e447a4c2484d261b46386971"),
    "curvature": ("ef7c303fb4706b6c7fedc86194eba5f4f8d9a875c95ed02965ea152b9d6b5e19",
                  "fb1b890595d524517624c45cc39a2cfd7cb0947164b188518626a0281a8319ba"),
    "calibrate": ("2a14efcdaeb8b79e5433443c959ce7f8abcd529af6b03a8820802efc0e9707e4",
                  "37207470f16629e2097df1271e9e5da18f04f467aa0587ecc46af19417f14355"),
    "plane-props": ("af0e81604e0eaf8dc7cf587a8e25f178b2e0308a5ca40dc254c94ba1996cdbaa",
                    "52d3dd2ad3f31bd432236e004c5b352284609e42431c51c9e3def7a34303f2ea"),
    "volume-compare": ("10f0baf698ad19c6d81edf613e816cce4a410ef0881e3c5981eda5774517bcf7",
                       "413f09e8094acb53156eff39c7706d115112437c340324f87980677c677b7e1c"),
}


@pytest.mark.parametrize("experiment", sorted(OUTPUT_DIGESTS))
def test_output_digests(tmp_path, experiment):
    path = write_config(tmp_path, small_config(experiment))
    out = tmp_path / experiment
    assert main([experiment, "--config", str(path), "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("report.json", "samples.csv"))
    assert digests == OUTPUT_DIGESTS[experiment]


# Runs JSON configs through run_experiment in a fresh interpreter, then
# prints whether each passed and which SciPy modules were loaded.
SCIPY_PROBE = """
import json, sys
from lagcal.cli import parse_config, run_experiment
passed = [run_experiment(parse_config(doc)).passed for doc in json.loads(sys.argv[1])]
print(json.dumps({"passed": passed,
                  "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")}))
"""


def probe_scipy(docs):
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE,
                           json.dumps([json.dumps(doc) for doc in docs])],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_experiments_do_not_load_scipy():
    probe = probe_scipy([small_config(e) for e in ("verify", "calibrate", "volume-compare")])
    assert probe == {"passed": [True, True, True], "scipy": []}


def test_samples_curve_forms_do_not_load_scipy():
    docs = [{"signature": {"p": 1, "n": 2}, "experiment": "verify", "samples": 10,
             "family": family} for family in spline_sampled_families()]
    assert probe_scipy(docs) == {"passed": [True, True], "scipy": []}


EVOLVING_QUADRIC_ANGLE = {
    "signature": {"p": 1, "n": 2}, "experiment": "angle", "samples": 10,
    "family": {"kind": "evolving-quadric", "matrix": [[0, -1], [1, 0]], "c": 2,
               "r": {"form": "constant"}, "s_interval": [-0.3, 0.3],
               "chart_center": [2.0, 0.5], "chart_half_width": 0.4},
}
TABLE_CONFIGS = {**{e: small_config(e) for e in OUTPUT_DIGESTS},
                 "angle-evolving-quadric": EVOLVING_QUADRIC_ANGLE}


@pytest.fixture(scope="module", params=sorted(TABLE_CONFIGS))
def table_run(request):
    config = TABLE_CONFIGS[request.param]
    return config, run_experiment(parse_config(json.dumps(config)))


def test_table_cells_are_plain_python_scalars(table_run):
    # one entry per sample in every column; emit_report writes str of the
    # tolist cells, and a numpy scalar would print differently
    config, report = table_run
    assert len(report.table) > 0
    for name, column in report.table.items():
        assert isinstance(column, np.ndarray) and column.shape == (config["samples"],), name
        assert {type(v) for v in column.tolist()} <= {int, float, str}, name


def test_samples_csv_round_trips(tmp_path, table_run):
    _, report = table_run
    emit_report(report, str(tmp_path))
    with open(tmp_path / "samples.csv", newline="") as handle:
        header, *cells = csv.reader(handle)
    assert header == list(report.table)
    rows = list(zip(*(c.tolist() for c in report.table.values())))
    assert len(cells) == len(rows)
    for written, row in zip(cells, rows):
        assert written == [str(v) for v in row]
        for text, value in zip(written, row):
            if type(value) is float:
                assert float(text) == value


def test_calibrate_table_is_written_in_blocks(tmp_path):
    # two full blocks of rows and a ragged one of 5
    samples = 2 * STACK_BLOCK + 5
    doc = {**small_config("calibrate"), "samples": samples}
    report = run_experiment(parse_config(json.dumps(doc)))
    paths = [emit_report(report, str(tmp_path / name)) for name in ("first", "second")]
    for a, b in zip(*paths):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), a
    # the bytes of the whole columns converted at once
    rows = zip(*(c.tolist() for c in report.table.values()))
    lines = [",".join(report.table)] + [",".join(map(str, row)) for row in rows]
    assert (tmp_path / "first" / "samples.csv").read_bytes() == "".join(
        line + "\n" for line in lines).encode()


def test_calibrate_peak_memory_follows_the_block_not_the_stack():
    # 10^5 frames at (1, 3): each complex stack is 14.4 MB; the whole-stack
    # sampler and the table of Python floats peaked at 67.3 MB, blocks at
    # 38.8 MB, and the sampler exponentiating in place at about 24.1 MB
    cfg = parse_config(json.dumps({"signature": {"p": 1, "n": 3},
                                   "experiment": "calibrate", "samples": 10**5}))
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30e6, peak / 1e6


def test_cli_uses_the_library_self_adjoint_tolerance(monkeypatch):
    doc = {"signature": {"p": 0, "n": 2}, "experiment": "verify",
           "family": {"kind": "evolving-quadric", "matrix": [[1, 1e-9], [0, -1]], "c": 1}}
    with pytest.raises(ConfigError, match="family.matrix"):
        run_experiment(parse_config(json.dumps(doc)))
    monkeypatch.setattr("lagcal.families.SELF_ADJOINT_TOL", 1e-8)
    run_experiment(parse_config(json.dumps(doc)))


# Fuzzing of the config path: mutations of a valid catenoid document.  Every
# mutated document is invalid on its own field, so the config path (parse_config,
# or run_experiment for the family generator's checks) and main must reject it
# with that field (or an enclosing one) named, never a traceback.
FUZZ_DOCUMENT = {
    "signature": {"p": 0, "n": 2},
    "family": {"kind": "catenoid", "c": 1, "epsilon": 1, "sector": 0,
               "chart_half_width": 0.3},
    "experiment": "verify", "samples": 3, "seed": 5, "tol": 1e-9, "grid": [8],
}
DROP = object()
WRONG_VALUES = [True, False, "1", "x", [1], [], {}, None, math.nan, math.inf, -math.inf]
WRONG_TYPES = st.sampled_from(WRONG_VALUES)
NON_INTEGRAL = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda x: not x.is_integer())
# Values outside each field's range while the rest of the document is valid:
# p = n = 2 or a sector of the wrong sign would be rejected by the family
# generator naming other fields too, so they are not drawn; n = 1 is rejected
# by the quadric chart, naming signature.n.
OUT_OF_RANGE = {
    "signature.p": st.integers(max_value=-1) | st.integers(min_value=3) | NON_INTEGRAL,
    "signature.n": (st.integers(max_value=1) | st.integers(min_value=MAX_N + 1)
                    | NON_INTEGRAL),
    "family.c": st.sampled_from([0, 0.0, -0.0]),
    "family.epsilon": st.integers().filter(lambda e: e not in (-1, 1)) | NON_INTEGRAL,
    "family.sector": st.integers(max_value=-1) | st.integers(min_value=4) | NON_INTEGRAL,
    "family.chart_half_width": st.floats(max_value=0.0, allow_infinity=False),
    "samples": (st.integers(max_value=0) | st.integers(min_value=MAX_SAMPLES + 1)
                | NON_INTEGRAL),
    "seed": st.integers(max_value=-1) | st.integers(min_value=2 ** 64) | NON_INTEGRAL,
    "tol": st.floats(max_value=0.0, allow_infinity=False),
    "grid": st.lists(st.integers(max_value=0) | NON_INTEGRAL | WRONG_TYPES, min_size=1),
}
REQUIRED = ["signature", "signature.p", "signature.n", "family", "family.kind", "family.c"]
MUTATION = st.one_of(
    st.tuples(st.sampled_from(REQUIRED), st.just(DROP)),
    st.tuples(st.sampled_from(sorted(OUT_OF_RANGE) + ["family.kind"]),
              WRONG_TYPES).filter(lambda m: m not in (("grid", []), ("grid", [1]))),
    *(st.tuples(st.just(path), values) for path, values in OUT_OF_RANGE.items()),
)


def mutate(doc, mutations):
    """Apply (dotted path, value) mutations; returns the document and the paths hit."""
    doc = json.loads(json.dumps(doc))
    applied = []
    for path, value in mutations:
        *parents, key = path.split(".")
        node = doc
        for name in parents:
            node = node.get(name) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue  # an enclosing field was already replaced or dropped
        if value is DROP:
            node.pop(key, None)
        else:
            node[key] = value
        applied.append(path)
    return doc, applied


def names_mutated_field(fieldname, applied):
    return any(path == fieldname or path.startswith(fieldname + ".") for path in applied)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
@example(mutations=[("signature.n", 1)])
def test_fuzzed_configs_name_the_bad_field(tmp_path_factory, mutations):
    doc, applied = mutate(FUZZ_DOCUMENT, mutations)
    text = json.dumps(doc)
    with pytest.raises(ConfigError) as info:
        run_experiment(parse_config(text))
    assert names_mutated_field(info.value.fieldname, applied), (info.value, applied)

    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "run.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["verify", "--config", str(path), "--out", str(directory / "o")])
    assert code == 1
    message = err.getvalue()
    assert message.startswith("error: ") and message.count("\n") == 1, message
    assert names_mutated_field(message[len("error: "):].split(": ")[0], applied), message


# One valid document per family kind of the CLI, with a signature it runs in.
KIND_DOCUMENTS = {
    "flat": ({"p": 0, "n": 2}, {"kind": "flat"}),
    "equivariant": ({"p": 0, "n": 2}, EQUIVARIANT_LINE),
    "catenoid": ({"p": 0, "n": 2}, CATENOID_CONFIG["family"]),
    "evolving-quadric": ({"p": 0, "n": 2}, EVOLVING_QUADRIC),
    "product-null-curves": ({"p": 1, "n": 2}, PRODUCT_NULL),
    "hopf": ({"p": 0, "n": 2}, HOPF_GREAT_CIRCLE),
}


@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
def test_fuzzed_families_name_the_bad_field(tmp_path, capsys, kind):
    # the fields of a kind's spec class are its keys: each one replaced by a
    # value of the wrong type, and each required one dropped, is named
    signature, family = KIND_DOCUMENTS[kind]
    assert family["kind"] == kind

    def run(family):
        doc = {"signature": signature, "family": family, "samples": 2}
        code = main(["verify", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    assert run(family)[0] == 0
    schema = [f for f in dataclasses.fields(FAMILY_KINDS[kind]) if f.name != "sig"]
    mutations = [({**family, f.name: value}, f.name) for f in schema for value in WRONG_VALUES]
    mutations += [(without(family, f.name), f.name) for f in schema
                  if f.default is dataclasses.MISSING
                  and f.default_factory is dataclasses.MISSING]
    for mutated, name in mutations:
        code, err = run(mutated)
        assert code == 1 and err.startswith(f"error: family.{name}: "), (mutated, err)
        assert err.count("\n") == 1, err


# The curve field each form table parses, in a KIND_DOCUMENTS family.
CURVE_TABLES = [(CURVE, "equivariant", "gamma"), (PROFILE, "evolving-quadric", "r"),
                (SPHERE_CURVE, "hopf", "gamma"), (PAIR, "product-null-curves", "gamma1")]
SAMPLE_S = [0.0, 0.3, 0.6, 1.0]
SAMPLE_GAMMA = [[1.0, 0.1 * s] for s in SAMPLE_S]
SAMPLE_U = np.linspace(0.05, 1.5, 6).tolist()
SAMPLE_PAIR = [[0.5 * math.exp(u), 0.5 * math.exp(-u)] for u in SAMPLE_U]
# One valid document per form, giving exactly its required keys, and the
# constructor call the README names for it.
FORM_DOCUMENTS = {
    ("equivariant", "circle"): ({"form": "circle"},
                                Curve.exponential(1.0, 1j, (0.0, 2 * np.pi))),
    ("equivariant", "line"): (EQUIVARIANT_LINE["gamma"], Curve.line(1, 1j, (-0.8, 0.8))),
    ("equivariant", "exp"): ({"form": "exp", "z0": 1, "rate": [0.8, 0.6], "interval": [0, 1]},
                             Curve.exponential(1, 0.8 + 0.6j, (0, 1))),
    ("equivariant", "samples"): ({"form": "samples", "s": SAMPLE_S, "values": SAMPLE_GAMMA},
                                 Curve.from_samples(SAMPLE_S,
                                                    [complex(*z) for z in SAMPLE_GAMMA])),
    ("evolving-quadric", "constant"): ({"form": "constant"}, Curve.exponential(1.0, 0.0)),
    ("evolving-quadric", "exp"): ({"form": "exp", "rate": 0.3}, Curve.exponential(1.0, 0.3)),
    ("hopf", "great-circle"): ({"form": "great-circle"}, Curve.great_circle((0.0, 2 * np.pi))),
    ("hopf", "torus"): ({"form": "torus", "alpha": math.pi / 4, "k1": 1, "k2": 2},
                        Curve.exponential([math.cos(math.pi / 4), math.sin(math.pi / 4)],
                                          [1j, 2j], (0.0, 2 * np.pi))),
    ("product-null-curves", "real-exp"): (PRODUCT_NULL["gamma1"],
                                          Curve.exponential([0.5, 0.5], [1, -1], (0.05, 1.5))),
    ("product-null-curves", "samples"): ({"form": "samples", "u": SAMPLE_U,
                                          "values": SAMPLE_PAIR},
                                         Curve.from_samples(SAMPLE_U, SAMPLE_PAIR)),
}


@pytest.mark.parametrize("forms, kind, name, form", [
    pytest.param(forms, kind, name, form, id=f"{kind}-{form}")
    for forms, kind, name in CURVE_TABLES for form in forms])
def test_fuzzed_curve_forms_name_the_bad_field(tmp_path, capsys, forms, kind, name, form):
    # the keys of a form's table entry are its keys: each one replaced by a
    # value of the wrong type, each required one dropped, and a bad form are named
    signature, family = KIND_DOCUMENTS[kind]
    document, expected = FORM_DOCUMENTS[kind, form]
    assert document["form"] == form

    def run(curve):
        doc = {"signature": signature, "family": {**family, name: curve}, "samples": 2}
        code = main(["verify", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    _, keys = forms[form]
    required = {key for key, (_, *default) in keys.items() if not default}
    assert set(document) == {"form", *required}
    assert run(document)[0] == 0
    doc = {"signature": signature, "family": {**family, name: document}, "experiment": "verify"}
    curve = getattr(parse_config(json.dumps(doc)).spec, name)
    assert curve.interval == expected.interval
    s = np.linspace(*(expected.interval or (-0.4, 0.4)), 7)
    for got, want in zip(curve.jets(s, 2), expected.jets(s, 2), strict=True):
        assert np.array_equal(got, want)

    mutations = [{**document, key: value} for key in keys for value in WRONG_VALUES]
    mutations += [without(document, key) for key in required]
    mutations += [{**document, "form": value} for value in ([form], {"form": form}, "bogus")]
    for mutated in mutations:
        code, err = run(mutated)
        assert code == 1 and re.match(rf"error: family\.{name}[.:]", err), (mutated, err)
        assert err.count("\n") == 1, err


# Command line values are judged like document values: each is an int if it
# parses as one, else a float, else the string.
def flag_is_valid(flag, text):
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            return False
    if flag == "seed":
        return type(value) is int and 0 <= value < 2 ** 64
    if flag == "samples":
        return type(value) is int and 1 <= value <= MAX_SAMPLES
    return 0 < value < math.inf


FLAG_TEXT = (st.text() | st.integers().map(str) | st.floats().map(repr)
             | st.sampled_from(["", " ", "abc", "1.5", "-1", "0", "1e3", "0x10", "nan", "inf",
                                str(2 ** 64), str(MAX_SAMPLES + 1)]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(flag=st.sampled_from(["seed", "samples", "tol"]), data=st.data())
def test_fuzzed_flags_name_the_bad_field(tmp_path_factory, flag, data):
    text = data.draw(FLAG_TEXT.filter(lambda t: not flag_is_valid(flag, t)))
    directory = tmp_path_factory.mktemp("fuzz-flag")
    path = directory / "run.json"
    path.write_text(json.dumps(FUZZ_DOCUMENT))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        # the "=" form passes values that start with "-" as values
        code = main(["verify", "--config", str(path), "--out", str(directory / "o"),
                     f"--{flag}={text}"])
    assert code == 1
    message = err.getvalue()
    assert message.startswith(f"error: {flag}: ") and message.count("\n") == 1, message
