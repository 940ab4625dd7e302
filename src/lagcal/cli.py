"""Configuration-driven command line front end.

One JSON document describes a run: the signature, a family, the
experiment to perform and its sampling parameters.  Results land in two
files, a JSON report with a fixed key set and a CSV table with one row
per sample, written with LF line endings so that fixed seeds reproduce
byte-identical output.  Every table cell is a plain Python int, float or
str and is written as its ``str``: the shortest round-trip ``repr`` for
floats.  No column name or cell contains a comma, quote or newline, so
no cell is quoted.

Exit codes: 0 success, 1 usage or validation error, 2 when an
experiment threshold is violated.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import (
    GeometryError,
    NULL_PLANE_BASIS,
    STACK_BLOCK,
    Signature,
    apply_J,
    circ_mean,
    circ_spread,
    plane_props,
    random_complex_plane,
    random_lagrangian_plane,
    random_plane,
    random_totally_null_plane,
    spans_equal,
    symplectic_orthogonal,
    wrap_angle,
)
from .curvature import curvature_sample, minimality_residual
from .families import (
    Catenoid,
    Curve,
    Equivariant,
    EvolvingQuadric,
    FamilySpecError,
    FlatPlane,
    Hopf,
    ProductNullCurves,
    SELF_ADJOINT_TOL,
    build_family,
    check_self_adjoint,
    evolving_quadric_angle,
)
from .calibration import (
    frame_quantities,
    random_lagrangian_frames,
    random_perturbations,
    volume_compare,
)
from .immersion import (
    dvol,
    induced_metric,
    interior_samples,
    lagrangian_angle_at,
    lagrangian_defect,
    metric_signature,
)

EXPERIMENTS = ("verify", "angle", "curvature", "calibrate", "volume-compare", "plane-props")

MINIMALITY_GATE = 1e-6
ANGLE_GATE_EQUIVARIANT = 1e-9
ANGLE_GATE_QUADRIC = 1e-8
CURVATURE_GATE = 1e-5
SLACK_GATE = -1e-9
IDENTITY_GATE = 1e-10
VOLUME_SLACK_GATE = -1e-6
# Upper bound on samples: 10^7 frames already take gigabytes, and far larger
# counts make numpy refuse the allocation with a bare ValueError.
MAX_SAMPLES = 10 ** 7


class ConfigError(ValueError):
    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.fieldname = fieldname


@dataclass
class RunConfig:
    signature: Signature
    experiment: str
    family: dict | None = None  # the document's family object, echoed in report.json
    spec: object | None = None  # the family spec parsed from it; None without a family
    samples: int = 1000
    seed: int = 42
    tol: float = 1e-9
    grid: list = field(default_factory=list)
    out: str | None = None


@dataclass
class ExperimentReport:
    """Fixed-schema result record; inapplicable scalars stay None.

    ``rows`` is a sized, re-iterable sequence with one row per sample
    (a list, or a ``ColumnRows`` view over column arrays).  The cells of
    every row are plain Python ``int``, ``float`` or ``str`` values, never
    numpy scalars.
    """

    config: dict
    seed: int
    version: str
    passed: bool
    max_defect: float | None = None
    beta_mean: float | None = None
    beta_spread: float | None = None
    residual: float | None = None
    volumes: list | None = None
    slack_min: float | None = None
    identity_max_residual: float | None = None
    degenerate_count: int | None = None
    columns: list | None = None
    rows: "list | ColumnRows | None" = None


class ColumnRows:
    """Rows over equal-length 1-d column arrays, converted as they are read.

    ``len`` is the number of rows.  Each pass converts STACK_BLOCK rows at
    a time with ``tolist``, so the table is never held as Python objects
    all at once, and every pass yields the same tuples of plain scalars.
    """

    def __init__(self, *columns: np.ndarray):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        for start in range(0, len(self), STACK_BLOCK):
            yield from zip(*(c[start:start + STACK_BLOCK].tolist() for c in self.columns))


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


def _integer(value, where: str) -> int:
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ConfigError(where, "must be an integer")
    return value


def _real_array(value, shape: tuple, where: str) -> np.ndarray:
    """Nested lists of finite numbers with the given shape (None: any length)."""
    def fits(v, dims) -> bool:
        if not dims:
            return _is_real(v)
        return (isinstance(v, list) and dims[0] in (None, len(v))
                and all(fits(x, dims[1:]) for x in v))

    if not fits(value, shape):
        dims = ", ".join("k" if d is None else str(d) for d in shape)
        raise ConfigError(where, f"must be nested lists of finite numbers of shape "
                                 f"({dims}{',' if len(shape) == 1 else ''})")
    return np.array(value, dtype=float)


def _complex(value, where: str) -> complex:
    if _is_real(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_real, value)):
        return complex(value[0], value[1])
    raise ConfigError(where, "complex values are numbers or [re, im] pairs")


def _interval(value, where: str) -> tuple[float, float]:
    if (not isinstance(value, list) or len(value) != 2 or not all(map(_is_real, value))
            or not value[0] < value[1]):
        raise ConfigError(where, "intervals are [lo, hi] with lo < hi")
    return float(value[0]), float(value[1])


def _from_samples(s, values, where: str) -> Curve:
    """A spline curve through sample values; spline errors name the curve."""
    try:
        return Curve.from_samples(s, values)
    except ValueError as exc:
        raise ConfigError(where, f"cannot interpolate the samples: {exc}")


def _parse_curve(obj, where: str) -> Curve:
    if not isinstance(obj, dict) or "form" not in obj:
        raise ConfigError(where, "curve specs are objects with a 'form' key")
    form = obj["form"]
    if form == "circle":
        _check_keys(obj, {"form", "interval"}, where)
        return Curve.exponential(1.0, 1j, _interval(obj.get("interval", [0.0, 2 * np.pi]),
                                                    where + ".interval"))
    if form == "line":
        _check_keys(obj, {"form", "z0", "z1", "interval"}, where)
        return Curve.line(*(_complex(_require(obj, key, where), f"{where}.{key}")
                            for key in ("z0", "z1")),
                          _interval(_require(obj, "interval", where), where + ".interval"))
    if form == "exp":
        _check_keys(obj, {"form", "z0", "rate", "interval"}, where)
        return Curve.exponential(*(_complex(_require(obj, key, where), f"{where}.{key}")
                                   for key in ("z0", "rate")),
                                 _interval(_require(obj, "interval", where), where + ".interval"))
    if form == "samples":
        _check_keys(obj, {"form", "s", "values"}, where)
        s = _real_array(_require(obj, "s", where), (None,), where + ".s")
        values = _require(obj, "values", where)
        if not isinstance(values, list):
            raise ConfigError(where + ".values", "must be a list of complex values")
        values = [_complex(v, where + ".values") for v in values]
        return _from_samples(s, values, where)
    raise ConfigError(where, f"unknown curve form '{form}'")


def _parse_profile(obj, where: str) -> Curve:
    """A radial profile r(s); make_evolving_quadric checks that it stays positive."""
    if obj is None:
        return Curve.exponential(1.0, 0.0)
    if not isinstance(obj, dict) or "form" not in obj:
        raise ConfigError(where, "radial profiles are objects with a 'form' key")
    if obj["form"] == "constant":
        _check_keys(obj, {"form", "value"}, where)
        return Curve.exponential(_real(obj.get("value", 1.0), where + ".value"), 0.0)
    if obj["form"] == "exp":
        _check_keys(obj, {"form", "rate", "scale"}, where)
        return Curve.exponential(_real(obj.get("scale", 1.0), where + ".scale"),
                                 _real(_require(obj, "rate", where), where + ".rate"))
    raise ConfigError(where, f"unknown profile form '{obj['form']}'")


def _parse_sphere_curve(obj, where: str) -> Curve:
    if not isinstance(obj, dict) or "form" not in obj:
        raise ConfigError(where, "sphere curves are objects with a 'form' key")
    interval = _interval(obj.get("interval", [0.0, 2 * np.pi]), where + ".interval")
    if obj["form"] == "great-circle":
        _check_keys(obj, {"form", "interval"}, where)
        return Curve.great_circle(interval)
    if obj["form"] == "torus":
        _check_keys(obj, {"form", "alpha", "k1", "k2", "interval"}, where)
        alpha, k1, k2 = (_real(_require(obj, key, where), f"{where}.{key}")
                         for key in ("alpha", "k1", "k2"))
        return Curve.exponential([np.cos(alpha), np.sin(alpha)], [1j * k1, 1j * k2], interval)
    raise ConfigError(where, f"unknown sphere curve form '{obj['form']}'")


def _parse_pair_curve(obj, where: str) -> Curve:
    if not isinstance(obj, dict) or "form" not in obj:
        raise ConfigError(where, "pair curves are objects with a 'form' key")
    if obj["form"] == "real-exp":
        _check_keys(obj, {"form", "c1", "c2", "interval"}, where)
        # c1 = (a0, la) and c2 = (b0, mu) give (a0 e^{la u}, b0 e^{mu u})
        (a0, la), (b0, mu) = (_real_array(_require(obj, key, where), (2,), f"{where}.{key}")
                              for key in ("c1", "c2"))
        return Curve.exponential([a0, b0], [la, mu],
                                 _interval(_require(obj, "interval", where), where + ".interval"))
    if obj["form"] == "samples":
        _check_keys(obj, {"form", "u", "values"}, where)
        u = _real_array(_require(obj, "u", where), (None,), where + ".u")
        values = _real_array(_require(obj, "values", where), (None, 2), where + ".values")
        return _from_samples(u, values, where)
    raise ConfigError(where, f"unknown pair curve form '{obj['form']}'")


def _parse_plane(obj, where: str) -> np.ndarray:
    if obj == "null-x1y2":
        return NULL_PLANE_BASIS
    if (isinstance(obj, dict) and set(obj) == {"basis"} and isinstance(obj["basis"], list)
            and len(obj["basis"]) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in obj["basis"])):
        return np.array([[_complex(z, where + ".basis") for z in row] for row in obj["basis"]])
    raise ConfigError(where, "planes are 'null-x1y2' or {'basis': [[z, z], [z, z]]}")


def _chart_fields(obj: dict, sig: Signature, where: str) -> dict:
    """The optional quadric-chart keys of a family spec, as spec keyword arguments."""
    half_width = _real(obj.get("chart_half_width", 0.35), where + ".chart_half_width")
    if half_width <= 0.0:
        raise ConfigError(where + ".chart_half_width", "must be positive")
    return {
        "chart_center": (_real_array(obj["chart_center"], (sig.n,), where + ".chart_center")
                         if "chart_center" in obj else None),
        "chart_half_width": half_width,
    }


def _epsilon(obj: dict, where: str) -> int:
    epsilon = _integer(obj.get("epsilon", 1), where + ".epsilon")
    if epsilon not in (-1, 1):
        raise ConfigError(where + ".epsilon", "must be +1 or -1")
    return epsilon


def parse_family(obj, sig: Signature) -> object:
    where = "family"
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(where, "family specs are objects with a 'kind' key")
    kind = obj["kind"]
    if kind == "flat":
        _check_keys(obj, {"kind"}, where)
        return FlatPlane(sig=sig)
    if kind == "equivariant":
        _check_keys(obj, {"kind", "epsilon", "gamma", "chart_center", "chart_half_width"}, where)
        return Equivariant(
            sig=sig, epsilon=_epsilon(obj, where),
            gamma=_parse_curve(_require(obj, "gamma", where), where + ".gamma"),
            **_chart_fields(obj, sig, where))
    if kind == "catenoid":
        _check_keys(obj, {"kind", "epsilon", "c", "sector", "chart_center",
                          "chart_half_width"}, where)
        c = _real(_require(obj, "c", where), where + ".c")
        if c == 0.0:
            raise ConfigError(where + ".c", "must be nonzero")
        sector = _integer(obj.get("sector", 0), where + ".sector")
        if not 0 <= sector < 2 * sig.n:
            raise ConfigError(where + ".sector", f"must lie in [0, {2 * sig.n})")
        return Catenoid(sig=sig, epsilon=_epsilon(obj, where), c=c, sector=sector,
                        **_chart_fields(obj, sig, where))
    if kind == "evolving-quadric":
        _check_keys(obj, {"kind", "matrix", "c", "r", "s_interval", "chart_center",
                          "chart_half_width"}, where)
        matrix = _real_array(_require(obj, "matrix", where), (sig.n, sig.n), where + ".matrix")
        residual = check_self_adjoint(matrix, sig)
        if residual > SELF_ADJOINT_TOL:
            raise ConfigError(where + ".matrix",
                              f"matrix is not self-adjoint: residual {residual:.3e}")
        return EvolvingQuadric(
            sig=sig, matrix=matrix, c=_real(_require(obj, "c", where), where + ".c"),
            r=_parse_profile(obj.get("r"), where + ".r"),
            s_interval=_interval(obj.get("s_interval", [-0.4, 0.4]), where + ".s_interval"),
            **_chart_fields(obj, sig, where))
    if kind == "product-null-curves":
        _check_keys(obj, {"kind", "plane", "gamma1", "gamma2"}, where)
        return ProductNullCurves(
            sig=sig, plane=_parse_plane(obj.get("plane", "null-x1y2"), where + ".plane"),
            gamma1=_parse_pair_curve(_require(obj, "gamma1", where), where + ".gamma1"),
            gamma2=_parse_pair_curve(_require(obj, "gamma2", where), where + ".gamma2"))
    if kind == "hopf":
        _check_keys(obj, {"kind", "gamma"}, where)
        if (sig.p, sig.n) != (0, 2):
            raise ConfigError("signature", "the hopf family lives in signature (0, 2)")
        return Hopf(gamma=_parse_sphere_curve(_require(obj, "gamma", where), where + ".gamma"))
    raise ConfigError(where + ".kind", f"unknown family kind '{kind}'")


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
    p, n = (_integer(_require(sig_obj, key, "signature"), f"signature.{key}")
            for key in ("p", "n"))
    try:
        sig = Signature(p, n)
    except GeometryError as exc:
        raise ConfigError("signature", str(exc))

    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {', '.join(EXPERIMENTS)}")

    # JSON true and false decode to bool, a subclass of int: compare exact types.
    samples = raw.get("samples", 20 if experiment == "volume-compare" else 1000)
    if type(samples) is not int or not 1 <= samples <= MAX_SAMPLES:
        raise ConfigError("samples", f"must be an integer in [1, {MAX_SAMPLES}]")
    if experiment == "volume-compare" and samples > 64:
        raise ConfigError("samples", "volume-compare runs at most 64 perturbations")

    seed = raw.get("seed", 42)
    if type(seed) is not int or not 0 <= seed < 2 ** 64:
        raise ConfigError("seed", "must fit an unsigned 64-bit integer")

    tol = raw.get("tol", 1e-9)
    if type(tol) not in (int, float) or not 0 < tol < math.inf:
        raise ConfigError("tol", "must be a positive finite number")

    grid = raw.get("grid", [])
    if not isinstance(grid, list) or not all(type(g) is int and g >= 1 for g in grid):
        raise ConfigError("grid", "must be a list of integers >= 1")
    if len(grid) not in (0, 1, n):
        raise ConfigError("grid", f"must give one cell count or one per axis ({n}), "
                                  f"got {len(grid)}")

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


def _grid_for(cfg: RunConfig, n: int) -> list:
    if cfg.grid:
        return cfg.grid if len(cfg.grid) == n else [cfg.grid[0]] * n
    return [64] * n


# --- experiments ------------------------------------------------------------------

def _run_verify(cfg: RunConfig) -> ExperimentReport:
    patch = build_family(cfg.spec)
    rng = np.random.default_rng(cfg.seed)
    pts = interior_samples(patch, cfg.samples, rng)
    rows = []
    defects = np.empty(cfg.samples)
    betas = np.empty(cfg.samples)
    bad_signature = 0
    p = cfg.signature.p
    g, dv = induced_metric(patch, pts), dvol(patch, pts)
    for k, u in enumerate(pts):
        defects[k] = lagrangian_defect(patch, u)
        betas[k] = lagrangian_angle_at(patch, u)
        pos, neg, null = metric_signature(g[k])
        if neg != p or null != 0:
            bad_signature += 1
        rows.append([k, *u.tolist(), float(defects[k]), float(betas[k]), float(dv[k]),
                     neg, null])
    report = minimality_residual(patch, min(cfg.samples, 300),
                                 np.random.default_rng(cfg.seed + 1))
    passed = (float(np.max(defects)) <= cfg.tol) and bad_signature == 0
    n = patch.n
    return ExperimentReport(
        config=_config_echo(cfg), seed=cfg.seed, version=__version__, passed=passed,
        max_defect=float(np.max(defects)), beta_mean=circ_mean(betas),
        beta_spread=circ_spread(betas), residual=report.residual,
        degenerate_count=bad_signature,
        columns=["index", *[f"u{j}" for j in range(n)], "defect", "beta", "dvol",
                 "signature_negative", "signature_null"],
        rows=rows)


def _run_angle(cfg: RunConfig) -> ExperimentReport:
    spec = cfg.spec
    patch = build_family(spec)
    rng = np.random.default_rng(cfg.seed)
    pts = interior_samples(patch, cfg.samples, rng)
    gamma = patch.meta.get("gamma")
    n = patch.n
    # the angle law, the residual statistic of the offsets and the gate
    if gamma is not None:
        def law(u):
            g, dg = gamma.jets(u[-1], 1)
            return float(np.angle(complex(dg) * complex(g) ** (n - 1)))

        def statistic(offsets):
            return float(np.max(np.abs(offsets)))
        gate = ANGLE_GATE_EQUIVARIANT
    elif isinstance(spec, EvolvingQuadric):
        chart = patch.meta["chart"]

        def law(u):
            return evolving_quadric_angle(spec, u[-1], chart.value(u[:-1]))
        statistic, gate = circ_spread, ANGLE_GATE_QUADRIC
    else:
        raise ConfigError("family", "the angle experiment needs an angle law "
                          "(equivariant, catenoid or evolving-quadric family)")
    rows = []
    offsets = np.empty(cfg.samples)
    for k, u in enumerate(pts):
        beta = lagrangian_angle_at(patch, u)
        beta_law = law(u)
        offsets[k] = wrap_angle(beta - beta_law)
        rows.append([k, *u.tolist(), beta, beta_law, float(offsets[k])])
    residual = statistic(offsets)
    return ExperimentReport(
        config=_config_echo(cfg), seed=cfg.seed, version=__version__,
        passed=residual <= max(cfg.tol, gate),
        beta_mean=circ_mean(offsets), beta_spread=circ_spread(offsets),
        residual=residual,
        columns=["index", *[f"u{j}" for j in range(n)], "beta", "beta_law", "offset"],
        rows=rows)


def _run_curvature(cfg: RunConfig) -> ExperimentReport:
    patch = build_family(cfg.spec)
    rng = np.random.default_rng(cfg.seed)
    count = min(cfg.samples, 300)
    pts = interior_samples(patch, count, rng, margin=0.08)
    rows = []
    worst = 0.0
    for k, u in enumerate(pts):
        sample = curvature_sample(patch, u)
        worst = max(worst, sample.discrepancy)
        rows.append([k, *u.tolist(), float(np.linalg.norm(sample.H_angle)),
                     float(np.linalg.norm(sample.H_sff)), sample.discrepancy])
    return ExperimentReport(
        config=_config_echo(cfg), seed=cfg.seed, version=__version__,
        passed=worst <= CURVATURE_GATE, residual=worst,
        columns=["index", *[f"u{j}" for j in range(patch.n)],
                 "h_angle_norm", "h_sff_norm", "discrepancy"],
        rows=rows)


def _run_calibrate(cfg: RunConfig) -> ExperimentReport:
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
    rows = ColumnRows(np.arange(cfg.samples), beta0, q["beta"], q["dvol"], th, slack, identity)
    degenerate = cfg.samples - int(np.count_nonzero(ok))
    slack_min = identity_max = None  # if every frame is flagged
    if degenerate < cfg.samples:
        slack_min = float(min(np.min(slack, where=ok, initial=np.inf),
                              np.min(tight_slack, where=ok, initial=np.inf)))
        identity_max = float(np.max(identity, where=ok, initial=0.0))
    return ExperimentReport(
        config=_config_echo(cfg), seed=cfg.seed, version=__version__,
        passed=degenerate == 0 and slack_min >= SLACK_GATE and identity_max <= IDENTITY_GATE,
        max_defect=float(np.max(q["defect"])),
        slack_min=slack_min, identity_max_residual=identity_max,
        degenerate_count=degenerate,
        columns=["index", "beta0", "beta", "dvol", "theta0", "slack", "identity_residual"],
        rows=rows)


def _run_volume_compare(cfg: RunConfig) -> ExperimentReport:
    patch = build_family(cfg.spec)
    specs = random_perturbations(patch, cfg.samples, cfg.seed)
    report = volume_compare(patch, specs, _grid_for(cfg, patch.n), seed=cfg.seed)
    rows = []
    volumes = [report.base_volume]
    for r in report.results:
        rows.append([r.index, float(r.spec.amplitude), float(r.spec.radius),
                     *map(float, r.spec.center), int(r.spec.steps),
                     float(r.spec.step_size), r.status,
                     r.volume if r.volume is not None else "",
                     r.defect_max if r.defect_max is not None else "",
                     r.degenerate_points])
        if r.volume is not None:
            volumes.append(r.volume)
    ok = [r for r in report.results if r.status == "ok"]
    quorum = len(ok) >= (3 * len(specs)) // 4
    slack_min = report.min_slack() if ok else None
    passed = quorum and slack_min is not None and slack_min >= VOLUME_SLACK_GATE
    return ExperimentReport(
        config=_config_echo(cfg), seed=cfg.seed, version=__version__, passed=passed,
        max_defect=max((r.defect_max for r in ok), default=None),
        volumes=volumes, slack_min=slack_min,
        degenerate_count=report.degenerate_count,
        columns=["index", "amplitude", "radius", "center0", "center1", "steps",
                 "step_size", "status", "volume", "defect_max", "degenerate_points"],
        rows=rows)


def _run_plane_props(cfg: RunConfig) -> ExperimentReport:
    sig = cfg.signature
    if (sig.p, sig.n) != (1, 2):
        raise ConfigError("signature", "plane-props runs in signature (1, 2)")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    violations = 0
    for k in range(cfg.samples):
        kind = k % 4
        if kind == 0:
            plane = random_plane(rng)
        elif kind == 1:
            plane = random_totally_null_plane(rng, sig)
        elif kind == 2:
            plane = random_lagrangian_plane(rng, sig)
        else:
            plane = random_complex_plane(rng, null=bool(k % 8 == 7), sig=sig)
        props = plane_props(plane, sig, tol=1e-8)
        flags = (props.totally_null, props.lagrangian, props.complex_line)
        two_of_three_ok = not (sum(flags) == 2)
        orth = symplectic_orthogonal(plane, sig)
        null_iff = props.totally_null == spans_equal(apply_J(plane), orth, tol=1e-8)
        if not two_of_three_ok or not null_iff:
            violations += 1
        rows.append([k, *[int(f) for f in flags], int(two_of_three_ok), int(null_iff)])
    return ExperimentReport(
        config=_config_echo(cfg), seed=cfg.seed, version=__version__,
        passed=violations == 0, residual=float(violations),
        degenerate_count=0,
        columns=["index", "totally_null", "lagrangian", "complex_line",
                 "two_of_three_ok", "null_iff_jplane_ok"],
        rows=rows)


_RUNNERS = {
    "verify": _run_verify,
    "angle": _run_angle,
    "curvature": _run_curvature,
    "calibrate": _run_calibrate,
    "volume-compare": _run_volume_compare,
    "plane-props": _run_plane_props,
}


def run_experiment(cfg: RunConfig) -> ExperimentReport:
    """Run one validated config.  A family check that names the spec fields
    it reads (``sig.n``, ``sector``, ...) becomes a ConfigError naming them."""
    try:
        return _RUNNERS[cfg.experiment](cfg)
    except FamilySpecError as exc:
        if not exc.fields:
            raise
        names = ["signature" + f[3:] if f.split(".")[0] == "sig" else "family." + f
                 for f in exc.fields]
        raise ConfigError(", ".join(names), str(exc)) from exc


def emit_report(report: ExperimentReport, out_dir: str) -> tuple[str, str]:
    """Write report.json and samples.csv; returns the two paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "samples.csv")
    # Cells are plain ints, floats and strs (see ExperimentReport), so "%s"
    # gives the shortest round-trip repr of each float; lines are streamed.
    line = ",".join(["%s"] * len(report.columns)) + "\n"
    with open(csv_path, "w", newline="") as handle:
        handle.write(",".join(report.columns) + "\n")
        handle.writelines(line % tuple(row) for row in report.rows)

    payload = {
        "config": report.config,
        "seed": report.seed,
        "version": report.version,
        "passed": report.passed,
        "max_defect": report.max_defect,
        "beta_mean": report.beta_mean,
        "beta_spread": report.beta_spread,
        "residual": report.residual,
        "volumes": report.volumes,
        "slack_min": report.slack_min,
        "identity_max_residual": report.identity_max_residual,
        "degenerate_count": report.degenerate_count,
        "samples_table": "samples.csv",
    }
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
