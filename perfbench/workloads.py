"""The three benchmark workloads: seeded configs, expected outputs and call counts.

A workload seed selects one of ``VARIANTS`` configs (``seed mod VARIANTS``);
the variant is the ``seed`` field of every ``lagcal`` config the workload
runs, so the same benchmark seed always yields the same inputs and the
reference scalars in ``references.json`` exist for every seed.  Only the
sample points and competitor bumps change with the seed; the amount of
work does not.
"""

import json
import math
from dataclasses import dataclass

VARIANTS = 16

# The README catenoid: Im(gamma^n) = c on sector 0 of the quadric <x, x>_p = 1.
CATENOID = {"kind": "catenoid", "c": 1, "epsilon": 1, "sector": 0}

# volume_compare samples the base angle at every (nodes // 64)-th node of
# the default 64 x 64 quadrature grid: 64 lagrangian_angle_at calls.
BASE_ANGLE_PROBES = 64
# verify checks minimality, and curvature runs, on at most this many samples.
CURVATURE_SAMPLES = 300
# angle_gradient evaluates a 5-point stencil along each parameter axis.
STENCIL_POINTS = 5


@dataclass(frozen=True)
class Workload:
    why: str
    signature: dict
    family: dict | None
    experiments: tuple
    samples: int


WORKLOADS = {
    "catenoid-volume": Workload(
        why="The paper's volume experiment: the README catenoid against two Hamiltonian "
            "competitors; almost all time is the RK4 flow, the pointwise geometry is idle.",
        signature={"p": 0, "n": 2}, family=CATENOID,
        experiments=("volume-compare",), samples=2),
    "quadric-geometry": Workload(
        why="Pointwise checks of minimality, angle and curvature on the p=1, n=3 catenoid: "
            "implicit quadric-chart jets, an indefinite metric and angle stencils, no flow.",
        signature={"p": 1, "n": 3}, family=CATENOID,
        experiments=("verify", "angle", "curvature"), samples=100),
    "frames-calibrate": Workload(
        why="Batched pseudo-unitary sampling, frame quantities and a large CSV at p=1, n=3: "
            "no patch, no jets and no flow, but heavy on core and emit_report.",
        signature={"p": 1, "n": 3}, family=None,
        experiments=("calibrate",), samples=100_000),
}


def variant(seed: int) -> int:
    return seed % VARIANTS


def configs(name: str, seed: int) -> list:
    """(experiment, JSON config text) pairs the workload runs for ``seed``."""
    w = WORKLOADS[name]
    out = []
    for experiment in w.experiments:
        doc = {"signature": w.signature, "experiment": experiment,
               "samples": w.samples, "seed": variant(seed)}
        if w.family is not None:
            doc["family"] = w.family
        out.append((experiment, json.dumps(doc, sort_keys=True)))
    return out


def expected_rows(experiment: str, samples: int) -> int:
    return min(samples, CURVATURE_SAMPLES) if experiment == "curvature" else samples


def expected_calls(experiment: str, samples: int, n: int) -> dict:
    """Span counts that the inputs fix, for the tracer self-test."""
    m = min(samples, CURVATURE_SAMPLES)
    stencil = STENCIL_POINTS * n
    calls = {"cli.parse_config": 1, "cli.run_experiment": 1, "cli.emit_report": 1,
             "families.build_family": 0 if experiment == "calibrate" else 1}
    calls.update({
        "verify": {
            "immersion.metric_signature": samples,
            "immersion.lagrangian_defect": samples + m,
            "curvature.minimality_residual": 1,
            "curvature.mean_curvature_angle": m,
            "curvature.angle_gradient": m,
            "immersion.lagrangian_angle_at": samples + m * (1 + stencil),
        },
        "angle": {"immersion.lagrangian_angle_at": samples},
        "curvature": {
            "curvature.curvature_sample": m,
            "curvature.mean_curvature_angle": m,
            "curvature.mean_curvature_sff": m,
            "curvature.angle_gradient": 2 * m,
            "immersion.lagrangian_angle_at": 2 * m * stencil,
        },
        "calibrate": {
            "calibration.random_lagrangian_frames": 1,
            "calibration.frame_quantities": 1,
            "core.pseudo_unitary_sample": 1,
            "core.matrix_exp": 1,
        },
        "volume-compare": {
            "calibration.volume_compare": 1,
            "calibration.random_perturbations": 1,
            "calibration.hamiltonian_perturb": samples,
            "immersion.lagrangian_angle_at": BASE_ANGLE_PROBES,
        },
    }[experiment])
    return calls


# Absolute tolerances on the report scalars, each at most a tenth of the
# CLI gate that governs the scalar (cli.py): defect tol 1e-9, angle gate
# 1e-9, minimality gate 1e-6, curvature gate 1e-5, slack gate 1e-9,
# identity gate 1e-10 and volume slack gate 1e-6.
TOLERANCES = {
    "verify": {"max_defect": 1e-10, "beta_spread": 1e-10, "residual": 1e-7},
    "angle": {"beta_spread": 1e-10, "residual": 1e-10},
    "curvature": {"residual": 1e-6},
    "calibrate": {"max_defect": 1e-10, "slack_min": 1e-10, "identity_max_residual": 1e-11},
    "volume-compare": {"volumes": 1e-7, "slack_min": 1e-7, "max_defect": 1e-10},
}


def key_scalars(experiment: str, report: dict) -> dict:
    scalars = {key: report[key] for key in TOLERANCES[experiment]}
    scalars["degenerate_count"] = report["degenerate_count"]
    return scalars


def check_report(experiment: str, report: dict, rows: int, reference: dict,
                 samples: int) -> list:
    """Problems with one experiment's outputs; an empty list means correct."""
    problems = []
    if report.get("passed") is not True:
        problems.append(f"{experiment}: report.passed is {report.get('passed')!r}")
    if rows != expected_rows(experiment, samples):
        problems.append(f"{experiment}: samples.csv has {rows} rows, "
                        f"expected {expected_rows(experiment, samples)}")
    if report.get("degenerate_count") != reference["degenerate_count"]:
        problems.append(f"{experiment}: degenerate_count {report.get('degenerate_count')} "
                        f"!= reference {reference['degenerate_count']}")
    for key, tol in TOLERANCES[experiment].items():
        got, want = report.get(key), reference[key]
        got_list = got if isinstance(got, list) else [got]
        want_list = want if isinstance(want, list) else [want]
        if (len(got_list) != len(want_list)
                or any(g is None or not math.isfinite(g) or abs(g - w) > tol
                       for g, w in zip(got_list, want_list))):
            problems.append(f"{experiment}: {key} = {got!r}, reference {want!r} (tol {tol:g})")
    return problems
