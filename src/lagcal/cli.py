"""Configuration-driven command line front end.

One JSON document describes a run: the signature, a family, the
experiment to perform and its sampling parameters.  Results land in two
files, a JSON report with a fixed key set and a CSV table with one row
per sample, written with LF line endings so that fixed seeds reproduce
byte-identical output.  Each table column is a 1-d array; ``tolist``
turns its cells into plain Python ints, floats or strs, and each is
written as its ``str``: the shortest round-trip ``repr`` for floats.  No
column name or cell contains a comma, quote or newline, so no cell is
quoted.

Exit codes: 0 success, 1 usage or validation error, 2 when an
experiment threshold is violated.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import __version__
from .core import (
    DegenerateInput,
    GeometryError,
    NULL_PLANE_BASIS,
    STACK_BLOCK,
    Signature,
    apply_J,
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
from .curvature import angle_stencil, curvature_sample, minimality_residual, stencil_block
from .families import FAMILY_KINDS, Curve, FamilySpecError, Hopf, build_family
from .calibration import (
    frame_quantities,
    random_lagrangian_frames,
    random_perturbations,
    volume_compare,
)
from .immersion import (
    DegenerateFrame,
    _frame_metric,
    interior_samples,
    lagrangian_angle_at,
    lagrangian_defect,
    metric_signature,
    second_derivatives,
    tangent_frame,
)

ANGLE_GATE_EQUIVARIANT = 1e-9
ANGLE_GATE_QUADRIC = 1e-8
CURVATURE_GATE = 1e-5
SLACK_GATE = -1e-9
IDENTITY_GATE = 1e-10
VOLUME_SLACK_GATE = -1e-6
# verify checks minimality, and curvature runs, on at most this many samples
CURVATURE_SAMPLES = 300
# Upper bound on samples: 10^7 frames already take gigabytes, and far larger
# counts make numpy refuse the allocation with a bare ValueError.
MAX_SAMPLES = 10 ** 7
# Upper bound on signature.n: frames are n x n complex matrices, 256 KB each at
# n = 128, and a dimension such as 10^10 makes numpy refuse the allocation with
# a bare ValueError.
MAX_N = 128


class ConfigError(ValueError):
    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.fieldname = fieldname


@dataclass
class RunConfig:
    signature: Signature
    experiment: str
    family: dict | None  # the document's family object, echoed in report.json
    spec: object | None  # the family spec parsed from it; None without a family
    samples: int
    seed: int
    tol: float
    grid: list
    out: str | None


@dataclass
class ExperimentReport:
    """Fixed-schema result record; inapplicable scalars stay None.

    ``table`` maps each samples.csv column name, in order, to a 1-d array
    with one entry per sample.  ``tolist`` of every column gives plain
    Python ``int``, ``float`` or ``str`` values (``object`` columns hold
    ``""`` for empty cells).  The runners leave ``config``, ``seed`` and
    ``version`` to run_experiment, which stamps them on every report.
    """

    passed: bool
    max_defect: float | None = None
    beta_mean: float | None = None
    beta_spread: float | None = None
    residual: float | None = None
    volumes: list | None = None
    slack_min: float | None = None
    identity_max_residual: float | None = None
    degenerate_count: int | None = None
    table: dict | None = None
    config: dict | None = None
    seed: int | None = None
    version: str | None = None


def _check_keys(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(where, f"unknown keys {sorted(unknown)}")


def _require(obj: dict, key: str, where: str):
    """obj[key], or a ConfigError naming the missing field."""
    if key not in obj:
        raise ConfigError(f"{where}.{key}", "required field is missing")
    return obj[key]


def _is_real(value) -> bool:
    # JSON true and false decode to bool, a subclass of int: compare exact types.
    # The bound rejects nan, infinities and integers too large for a float.
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _real(value, where: str) -> float:
    if not _is_real(value):
        raise ConfigError(where, "must be a finite number")
    return float(value)


def _is_integer(value, lo=-math.inf, hi=math.inf) -> bool:
    # an int, not a bool (see _is_real) and not an integral float such as 2.0
    return type(value) is int and lo <= value <= hi


def _integer(value, where: str) -> int:
    if not _is_integer(value):
        raise ConfigError(where, "must be an integer")
    return value


def _real_array(*shape):
    """The parser of nested lists of finite numbers with this shape (None: any length)."""
    def fits(v, dims) -> bool:
        if not dims:
            return _is_real(v)
        return (isinstance(v, list) and dims[0] in (None, len(v))
                and all(fits(x, dims[1:]) for x in v))

    def parse(value, where: str) -> np.ndarray:
        if not fits(value, shape):
            dims = ", ".join("k" if d is None else str(d) for d in shape)
            raise ConfigError(where, f"must be nested lists of finite numbers of shape "
                                     f"({dims}{',' if len(shape) == 1 else ''})")
        return np.array(value, dtype=float)

    return parse


def _complex(value, where: str) -> complex:
    if _is_real(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_real, value)):
        return complex(value[0], value[1])
    raise ConfigError(where, "complex values are numbers or [re, im] pairs")


def _interval(value, where: str) -> tuple[float, float]:
    if (not isinstance(value, list) or len(value) != 2 or not all(map(_is_real, value))
            or not 0.0 < float(value[1]) - float(value[0]) < math.inf):
        raise ConfigError(where, "intervals are [lo, hi] with lo < hi and a finite width hi - lo")
    return float(value[0]), float(value[1])


def _complex_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(where, "must be a list of complex values")
    return [_complex(v, where) for v in value]


# The forms of each curve field: form name -> (constructor, {key: (parser,
# default if the key is optional)}).  The constructor takes the parsed keys in
# this order.  Radial profiles have no interval: the family's s_interval is theirs.
FULL_TURN = (_interval, [0.0, 2 * np.pi])
CURVE = {
    "circle": (lambda interval: Curve.exponential(1.0, 1j, interval), {"interval": FULL_TURN}),
    "line": (Curve.line, {"z0": (_complex,), "z1": (_complex,), "interval": (_interval,)}),
    "exp": (Curve.exponential,
            {"z0": (_complex,), "rate": (_complex,), "interval": (_interval,)}),
    "samples": (Curve.from_samples, {"s": (_real_array(None),), "values": (_complex_list,)}),
}
PROFILE = {
    "constant": (lambda value: Curve.exponential(value, 0.0), {"value": (_real, 1.0)}),
    "exp": (Curve.exponential, {"scale": (_real, 1.0), "rate": (_real,)}),
}
SPHERE_CURVE = {
    "great-circle": (Curve.great_circle, {"interval": FULL_TURN}),
    "torus": (lambda alpha, k1, k2, interval: Curve.exponential(
                  [np.cos(alpha), np.sin(alpha)], [1j * k1, 1j * k2], interval),
              {"alpha": (_real,), "k1": (_real,), "k2": (_real,), "interval": FULL_TURN}),
}
# real coefficients in the plane basis: c1 = (a0, la) and c2 = (b0, mu) give
# (a0 e^{la u}, b0 e^{mu u})
PAIR = {
    "real-exp": (lambda c1, c2, interval: Curve.exponential(*zip(c1, c2), interval),
                 {"c1": (_real_array(2),), "c2": (_real_array(2),), "interval": (_interval,)}),
    "samples": (Curve.from_samples,
                {"u": (_real_array(None),), "values": (_real_array(None, 2),)}),
}


def _parse_curve(forms: dict):
    """The parser of a curve field whose forms are ``forms``, one of the tables above."""
    def parse(obj, where: str) -> Curve:
        form = obj.get("form") if isinstance(obj, dict) else None
        if not isinstance(form, str) or form not in forms:
            raise ConfigError(where, f"curves are objects whose 'form' is one of "
                                     f"{', '.join(forms)}")
        build, keys = forms[form]
        _check_keys(obj, {"form", *keys}, where)
        args = [parser(obj.get(key, default[0]) if default else _require(obj, key, where),
                       f"{where}.{key}") for key, (parser, *default) in keys.items()]
        try:
            return build(*args)
        except ValueError as exc:  # on parsed keys only the spline constructor raises
            raise ConfigError(where, f"cannot interpolate the samples: {exc}")

    return parse


def _parse_plane(obj, where: str) -> np.ndarray:
    if obj == "null-x1y2":
        return NULL_PLANE_BASIS
    if (isinstance(obj, dict) and set(obj) == {"basis"} and isinstance(obj["basis"], list)
            and len(obj["basis"]) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in obj["basis"])):
        return np.array([[_complex(z, where + ".basis") for z in row] for row in obj["basis"]])
    raise ConfigError(where, "planes are 'null-x1y2' or {'basis': [[z, z], [z, z]]}")


def parse_family(obj, sig: Signature) -> object:
    """The family spec of a document object.  Its keys, required fields and
    defaults are the fields of the kind's spec class, less ``sig``.  Only types
    and shapes are checked here; the generators in lagcal.families judge the
    values, naming the fields."""
    where = "family"
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(where, "family specs are objects with a 'kind' key")
    kind = obj["kind"]
    spec_class = FAMILY_KINDS.get(kind) if isinstance(kind, str) else None
    if spec_class is None:
        raise ConfigError(where + ".kind", f"unknown family kind '{kind}'")
    schema = [f for f in fields(spec_class) if f.name != "sig"]
    _check_keys(obj, {"kind", *(f.name for f in schema)}, where)
    parsers = {
        "epsilon": _integer, "sector": _integer, "c": _real, "chart_half_width": _real,
        "chart_center": _real_array(sig.n), "matrix": _real_array(sig.n, sig.n),
        "s_interval": _interval, "r": _parse_curve(PROFILE), "plane": _parse_plane,
        "gamma": _parse_curve(SPHERE_CURVE if spec_class is Hopf else CURVE),
        "gamma1": _parse_curve(PAIR), "gamma2": _parse_curve(PAIR),
    }
    # an absent key keeps its spec default; _require names an absent required one
    required = {f.name for f in schema if f.default is MISSING and f.default_factory is MISSING}
    return spec_class(sig=sig, **{
        f.name: parsers[f.name](_require(obj, f.name, where), f"{where}.{f.name}")
        for f in schema if f.name in obj or f.name in required})


def _load_document(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("document", f"invalid JSON at line {exc.lineno}, column {exc.colno}")
    if not isinstance(raw, dict):
        raise ConfigError("document", "the configuration must be a JSON object")
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse and validate one JSON run configuration."""
    return validate_config(_load_document(text))


def validate_config(raw: dict) -> RunConfig:
    """Validate one decoded run configuration document."""
    _check_keys(raw, {"signature", "family", "experiment", "samples", "seed", "tol",
                      "grid", "out"}, "document")

    sig_obj = raw.get("signature")
    if not isinstance(sig_obj, dict):
        raise ConfigError("signature", "required object with integer keys p and n")
    _check_keys(sig_obj, {"p", "n"}, "signature")
    p = _integer(_require(sig_obj, "p", "signature"), "signature.p")
    n = _require(sig_obj, "n", "signature")
    if not _is_integer(n, 1, MAX_N):
        raise ConfigError("signature.n", f"must be an integer in [1, {MAX_N}]")
    try:
        sig = Signature(p, n)
    except GeometryError as exc:
        raise ConfigError("signature", str(exc))

    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {', '.join(EXPERIMENTS)}")
    if experiment == "volume-compare" and n != 2:
        raise ConfigError("signature.n", "volume-compare deforms surfaces: n must be 2")

    samples = raw.get("samples", 20 if experiment == "volume-compare" else 1000)
    if not _is_integer(samples, 1, MAX_SAMPLES):
        raise ConfigError("samples", f"must be an integer in [1, {MAX_SAMPLES}]")
    if experiment == "volume-compare" and samples > 64:
        raise ConfigError("samples", "volume-compare runs at most 64 perturbations")

    seed = raw.get("seed", 42)
    if not _is_integer(seed, 0, 2 ** 64 - 1):
        raise ConfigError("seed", "must fit an unsigned 64-bit integer")

    tol = raw.get("tol", 1e-9)
    if type(tol) not in (int, float) or not 0 < tol < math.inf:
        raise ConfigError("tol", "must be a positive finite number")

    grid = raw.get("grid", [])
    if not isinstance(grid, list) or not all(_is_integer(g, 1) for g in grid):
        raise ConfigError("grid", "must be a list of integers >= 1")
    if len(grid) not in (0, 1, n):
        raise ConfigError("grid", f"must give one cell count or one per axis ({n}), "
                                  f"got {len(grid)}")
    nodes = math.prod(grid if len(grid) == n else grid * n)
    if nodes > MAX_SAMPLES:
        raise ConfigError("grid", f"{nodes} quadrature nodes exceed {MAX_SAMPLES}")

    family = raw.get("family")
    spec = None
    if experiment in ("calibrate", "plane-props"):
        if family is not None:
            raise ConfigError("family", f"the {experiment} experiment takes no family")
    elif family is None:
        raise ConfigError("family", f"the {experiment} experiment needs a family")
    else:
        spec = parse_family(family, sig)

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out", "must be a path string")

    return RunConfig(signature=sig, experiment=experiment, family=family, spec=spec,
                     samples=samples, seed=seed, tol=float(tol), grid=list(grid), out=out)


def _config_echo(cfg: RunConfig) -> dict:
    return {
        "signature": {"p": cfg.signature.p, "n": cfg.signature.n},
        "family": cfg.family,
        "experiment": cfg.experiment,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "tol": cfg.tol,
        "grid": cfg.grid,
    }


# --- experiments ------------------------------------------------------------------

def _sample_table(pts: np.ndarray, **columns) -> dict:
    """A samples table led by the sample index and the coordinates u0, u1, ..."""
    return {"index": np.arange(len(pts)), **{f"u{j}": pts[:, j] for j in range(pts.shape[1])},
            **columns}


def _run_verify(cfg: RunConfig, patch) -> ExperimentReport:
    pts = interior_samples(patch, cfg.samples, np.random.default_rng(cfg.seed))
    defects, betas = np.empty((2, cfg.samples))
    negative, null = np.empty((2, cfg.samples), dtype=int)  # metric signature counts
    frame = tangent_frame(patch, pts)
    g, dv = _frame_metric(frame, patch.sig), frame_quantities(frame, patch.sig)["dvol"]
    for k, u in enumerate(pts):
        defects[k] = lagrangian_defect(patch, u, frame[k])
        betas[k] = lagrangian_angle_at(patch, u, frame[k])
        negative[k], null[k] = metric_signature(g[k])[1:]
    bad_signature = int(np.count_nonzero((negative != cfg.signature.p) | (null != 0)))
    max_defect = float(np.max(defects))
    return ExperimentReport(
        passed=max_defect <= cfg.tol and bad_signature == 0,
        max_defect=max_defect, beta_mean=circ_mean(betas),
        beta_spread=circ_spread(betas),
        residual=minimality_residual(patch, pts[:CURVATURE_SAMPLES], frame[:CURVATURE_SAMPLES]),
        degenerate_count=bad_signature,
        table=_sample_table(pts, defect=defects, beta=betas, dvol=dv,
                            signature_negative=negative, signature_null=null))


def _run_angle(cfg: RunConfig, patch) -> ExperimentReport:
    law = patch.meta.get("angle_law")
    if law is None:
        raise ConfigError("family", "the angle experiment needs an angle law "
                          "(equivariant, catenoid or evolving-quadric family)")
    pts = interior_samples(patch, cfg.samples, np.random.default_rng(cfg.seed))
    betas = np.array([lagrangian_angle_at(patch, u, frame)
                      for u, frame in zip(pts, tangent_frame(patch, pts))])
    laws = law.beta(pts)
    offsets = wrap_angle(betas - laws)
    # an exact law must hold pointwise; one up to a constant must keep its offset
    if law.exact:
        residual, gate = float(np.max(np.abs(offsets))), ANGLE_GATE_EQUIVARIANT
    else:
        residual, gate = circ_spread(offsets), ANGLE_GATE_QUADRIC
    return ExperimentReport(
        passed=residual <= max(cfg.tol, gate),
        beta_mean=circ_mean(offsets), beta_spread=circ_spread(offsets),
        residual=residual,
        table=_sample_table(pts, beta=betas, beta_law=laws, offset=offsets))


def _run_curvature(cfg: RunConfig, patch) -> ExperimentReport:
    rng = np.random.default_rng(cfg.seed)
    count = min(cfg.samples, CURVATURE_SAMPLES)
    pts = interior_samples(patch, count, rng, margin=0.08)
    h_angle, h_sff, discrepancy = np.empty((3, count))
    step = stencil_block(patch)
    for start in range(0, count, step):  # each block's jets in one stacked call apiece
        block = pts[start:start + step]
        frames = tangent_frame(patch, block)
        stencils = tangent_frame(patch, angle_stencil(patch, block))
        d2 = second_derivatives(patch, block)
        for k, (u, frame, stencil, sec) in enumerate(zip(block, frames, stencils, d2), start):
            sample = curvature_sample(patch, u, frame, stencil, sec)
            h_angle[k] = np.linalg.norm(sample.H_angle)
            h_sff[k] = np.linalg.norm(sample.H_sff)
            discrepancy[k] = sample.discrepancy
    worst = float(np.max(discrepancy))
    return ExperimentReport(
        passed=worst <= CURVATURE_GATE, residual=worst,
        table=_sample_table(pts, h_angle_norm=h_angle, h_sff_norm=h_sff,
                            discrepancy=discrepancy))


def _run_calibrate(cfg: RunConfig, patch) -> ExperimentReport:
    sig = cfg.signature
    rng = np.random.default_rng(cfg.seed)
    # no name holds the frames, so their stack is freed before the columns are built
    q = frame_quantities(random_lagrangian_frames(sig, cfg.samples, rng), sig)
    beta0 = rng.uniform(-np.pi, np.pi, cfg.samples)
    th = (np.exp(-1j * beta0) * q["omega_det"]).real
    ok = ~q["degenerate"]  # flagged frames get NaN ratios, and the statistics skip them

    def ratio(num, den):
        return np.divide(num, den, out=np.full(cfg.samples, np.nan), where=ok)

    slack = ratio(q["dvol"] - th, q["scale"])
    abs_det = np.abs(q["omega_det"])  # |det M| of the coefficient matrix
    tight_slack = ratio(q["dvol"] - abs_det, q["scale"])
    identity = ratio(np.abs(q["dvol"] - abs_det), q["dvol"])
    degenerate = cfg.samples - int(np.count_nonzero(ok))
    slack_min = identity_max = None  # if every frame is flagged
    if degenerate < cfg.samples:
        slack_min = float(min(np.min(slack, where=ok, initial=np.inf),
                              np.min(tight_slack, where=ok, initial=np.inf)))
        identity_max = float(np.max(identity, where=ok, initial=0.0))
    return ExperimentReport(
        passed=degenerate == 0 and slack_min >= SLACK_GATE and identity_max <= IDENTITY_GATE,
        max_defect=float(np.max(q["defect"])),
        slack_min=slack_min, identity_max_residual=identity_max,
        degenerate_count=degenerate,
        table={"index": np.arange(cfg.samples), "beta0": beta0, "beta": q["beta"],
               "dvol": q["dvol"], "theta0": th, "slack": slack, "identity_residual": identity})


def _run_volume_compare(cfg: RunConfig, patch) -> ExperimentReport:
    specs = random_perturbations(patch, cfg.samples, cfg.seed)
    report = volume_compare(patch, specs, cfg.grid or [64], seed=cfg.seed)
    results = report.results
    perturbations = [r.spec for r in results]
    centers = np.array([s.center for s in perturbations], dtype=float)

    def blank_if_none(values):  # a competitor without a quadrature keeps empty cells
        return np.array(["" if v is None else v for v in values], dtype=object)

    ok = [r for r in results if r.status == "ok"]
    quorum = len(ok) >= (3 * len(specs)) // 4
    slack_min = report.min_slack() if ok else None
    passed = quorum and slack_min is not None and slack_min >= VOLUME_SLACK_GATE
    return ExperimentReport(
        passed=passed,
        max_defect=max((r.defect_max for r in ok), default=None),
        volumes=[report.base_volume, *(r.volume for r in results if r.volume is not None)],
        slack_min=slack_min,
        degenerate_count=report.degenerate_count,
        table={"index": np.array([r.index for r in results]),
               "amplitude": np.array([s.amplitude for s in perturbations], dtype=float),
               "radius": np.array([s.radius for s in perturbations], dtype=float),
               "center0": centers[:, 0], "center1": centers[:, 1],
               "steps": np.array([s.steps for s in perturbations], dtype=int),
               "step_size": np.array([s.step_size for s in perturbations], dtype=float),
               "status": np.array([r.status for r in results]),
               "volume": blank_if_none(r.volume for r in results),
               "defect_max": blank_if_none(r.defect_max for r in results),
               "degenerate_points": np.array([r.degenerate_points for r in results])})


def _run_plane_props(cfg: RunConfig, patch) -> ExperimentReport:
    sig = cfg.signature
    if (sig.p, sig.n) != (1, 2):
        raise ConfigError("signature", "plane-props runs in signature (1, 2)")
    rng = np.random.default_rng(cfg.seed)
    flags = np.empty((cfg.samples, 3), dtype=int)  # totally null, Lagrangian, complex line
    null_iff = np.empty(cfg.samples, dtype=bool)
    for k in range(cfg.samples):
        kind = k % 4
        if kind == 0:
            plane = random_plane(rng)
        elif kind == 1:
            plane = random_totally_null_plane(rng, sig)
        elif kind == 2:
            plane = random_lagrangian_frames(sig, 1, rng)[0]
        else:
            plane = random_complex_plane(rng, null=bool(k % 8 == 7), sig=sig)
        props = plane_props(plane, sig, tol=1e-8)
        flags[k] = props.totally_null, props.lagrangian, props.complex_line
        orth = symplectic_orthogonal(plane, sig)
        null_iff[k] = props.totally_null == spans_equal(apply_J(plane), orth, tol=1e-8)
    two_of_three_ok = flags.sum(axis=1) != 2
    violations = int(np.count_nonzero(~(two_of_three_ok & null_iff)))
    return ExperimentReport(
        passed=violations == 0, residual=float(violations),
        degenerate_count=0,
        table={"index": np.arange(cfg.samples), "totally_null": flags[:, 0],
               "lagrangian": flags[:, 1], "complex_line": flags[:, 2],
               "two_of_three_ok": two_of_three_ok.astype(int),
               "null_iff_jplane_ok": null_iff.astype(int)})


_RUNNERS = {
    "verify": _run_verify,
    "angle": _run_angle,
    "curvature": _run_curvature,
    "calibrate": _run_calibrate,
    "volume-compare": _run_volume_compare,
    "plane-props": _run_plane_props,
}
EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(cfg: RunConfig) -> ExperimentReport:
    """Run one validated config: build its family, if it has one, run the
    experiment on it and stamp the report.  A family check that names the
    spec fields it reads (``sig.n``, ``sector``, ...) becomes a ConfigError
    naming them, or naming ``family`` when it names none, as does a degenerate
    frame or input met on a family (say, a base that is not minimal)."""
    try:
        patch = None if cfg.spec is None else build_family(cfg.spec)
        report = _RUNNERS[cfg.experiment](cfg, patch)
    except FamilySpecError as exc:
        names = ["signature" + f[3:] if f.split(".")[0] == "sig" else "family." + f
                 for f in exc.fields] or ["family"]
        raise ConfigError(", ".join(names), str(exc)) from exc
    except (DegenerateFrame, DegenerateInput) as exc:
        if cfg.spec is None:
            raise
        raise ConfigError("family", str(exc)) from exc
    report.config, report.seed, report.version = _config_echo(cfg), cfg.seed, __version__
    return report


def emit_report(report: ExperimentReport, out_dir: str) -> tuple[str, str]:
    """Write report.json and samples.csv; returns the two paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "samples.csv")
    # tolist gives plain ints, floats and strs, so "%s" gives the shortest
    # round-trip repr of each float.  STACK_BLOCK rows are converted at a
    # time, so the table is never held as Python objects all at once.
    columns = list(report.table.values())
    line = ",".join(["%s"] * len(columns)) + "\n"
    with open(csv_path, "w", newline="") as handle:
        handle.write(",".join(report.table) + "\n")
        for start in range(0, len(columns[0]), STACK_BLOCK):
            rows = zip(*(c[start:start + STACK_BLOCK].tolist() for c in columns))
            handle.writelines(line % row for row in rows)

    payload = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "table"}
    payload["samples_table"] = "samples.csv"
    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w", newline="") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return json_path, csv_path


def _flag_value(text: str):
    """A command line value as a document value: an int, else a float, else the string."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lagcal",
        description="Verification experiments for minimal Lagrangian families")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (default: config or '.')")
    # no type= conversion: validate_config judges these like document values
    parser.add_argument("--seed", default=None)
    parser.add_argument("--samples", default=None)
    parser.add_argument("--tol", default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; a usage error is exit code 1, as for any bad input
        return 0 if exc.code == 0 else 1

    try:
        with open(args.config) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        raw = _load_document(text)
        raw["experiment"] = args.experiment
        for key in ("seed", "samples", "tol"):
            if getattr(args, key) is not None:
                raw[key] = _flag_value(getattr(args, key))
        cfg = validate_config(raw)
        report = run_experiment(cfg)
    except (ConfigError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = args.out or cfg.out or "."
    try:
        json_path, csv_path = emit_report(report, out_dir)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    print(f"report: {json_path}")
    print(f"samples: {csv_path}")
    print("status:", "pass" if report.passed else "threshold violation")
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
