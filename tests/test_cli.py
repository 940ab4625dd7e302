"""Command line front end: config validation, reports, exit codes."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from lagcal.cli import ConfigError, emit_report, main, parse_config, run_experiment

CATENOID_CONFIG = {
    "signature": {"p": 0, "n": 2},
    "family": {"kind": "catenoid", "c": 1, "epsilon": 1, "sector": 0},
    "experiment": "verify",
}


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
    bad = {
        "signature": {"p": 0, "n": 2},
        "family": {"kind": "evolving-quadric", "matrix": [[0, -1], [1, 0]], "c": 1},
        "experiment": "verify",
    }
    with pytest.raises(ConfigError, match="residual"):
        parse_config(json.dumps(bad))


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


@pytest.mark.parametrize("experiment, doc, args, fieldname", [
    pytest.param("verify", {}, ["--samples", "0"], "samples", id="samples-flag-0"),
    pytest.param("volume-compare", {}, ["--samples", "65"], "samples", id="samples-flag-65"),
    pytest.param("verify", {}, ["--seed", "-1"], "seed", id="seed-flag-negative"),
    pytest.param("verify", {"samples": True}, [], "samples", id="samples-true"),
    pytest.param("verify", {"seed": True}, [], "seed", id="seed-true"),
    pytest.param("verify", {}, ["--tol", "nan"], "tol", id="tol-flag-nan"),
    pytest.param("verify", {"tol": float("nan")}, [], "tol", id="tol-nan"),
])
def test_cli_rejects_malformed_values(tmp_path, capsys, experiment, doc, args, fieldname):
    # command line overrides and document values pass the same validation
    path = write_config(tmp_path, {**CATENOID_CONFIG, "samples": 5, **doc})
    code = main([experiment, "--config", str(path), "--out", str(tmp_path / "o"), *args])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {fieldname}: ")


# sha256 of report.json and samples.csv, recorded for the p=1, n=3 catenoid at
# 20 samples and seed 11.  The digests pin the output bits on one numpy / BLAS
# build: a change that moves one must state the size of the numerical drift,
# and another build may round differently and fail here with lagcal unchanged.
OUTPUT_DIGESTS = {
    "verify": ("9ea0352f055120df5fcc99f83736b51a63680567545acb7f7fc23edb8bd2241b",
               "5af677bb50d097a4dee294d5041048916fb7ba72f75b4fec8042f41163131526"),
    "angle": ("75924409263b482c7c1a24b4307db7e883cd03a732fd2e690a17f63dba79146e",
              "6742637823834c32a33fafb8513683aa93252b177e248883ec5409fc95098ff9"),
    "curvature": ("ef7c303fb4706b6c7fedc86194eba5f4f8d9a875c95ed02965ea152b9d6b5e19",
                  "fb1b890595d524517624c45cc39a2cfd7cb0947164b188518626a0281a8319ba"),
}


@pytest.mark.parametrize("experiment", sorted(OUTPUT_DIGESTS))
def test_output_digests(tmp_path, experiment):
    config = {"signature": {"p": 1, "n": 3},
              "family": {"kind": "catenoid", "c": 1, "epsilon": 1, "sector": 0},
              "experiment": experiment, "samples": 20, "seed": 11}
    path = write_config(tmp_path, config)
    out = tmp_path / experiment
    assert main([experiment, "--config", str(path), "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("report.json", "samples.csv"))
    assert digests == OUTPUT_DIGESTS[experiment]
