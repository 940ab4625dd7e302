"""Span tracer that wraps public ``lagcal`` functions from outside the package.

Each wrapped call appends one span ``[name, start, end, parent]`` to an
in-memory list; ``parent`` is the index of the enclosing span or -1.
Counters (evaluated points, flow steps, bytes written) are kept beside
the spans.  Nothing is written while the program runs: the caller dumps
the spans when the run ends.

Functions are wrapped where they are defined and rebound in every
``lagcal`` module that holds a reference to the same object, so calls
through ``from .immersion import lagrangian_angle_at`` in ``cli``,
``curvature`` and ``calibration`` are traced too.  ``uninstall`` puts
every original back.

Only the standard library is imported, so loading this module does not
change what ``import lagcal.cli`` costs.
"""

import dataclasses
import functools
import math
import os
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs traced as spans named "<module>.<function>".
TRACED = (
    ("cli", "parse_config"),
    ("cli", "run_experiment"),
    ("cli", "emit_report"),
    ("families", "build_family"),
    ("immersion", "tangent_frame"),
    ("immersion", "lagrangian_angle_at"),
    ("immersion", "lagrangian_defect"),
    ("immersion", "induced_metric"),
    ("immersion", "second_derivatives"),
    ("immersion", "metric_signature"),
    ("curvature", "curvature_sample"),
    ("curvature", "angle_gradient"),
    ("curvature", "mean_curvature_angle"),
    ("curvature", "mean_curvature_sff"),
    ("curvature", "minimality_residual"),
    ("calibration", "volume_compare"),
    ("calibration", "hamiltonian_perturb"),
    ("calibration", "random_perturbations"),
    ("calibration", "random_lagrangian_frames"),
    ("calibration", "frame_quantities"),
    ("core", "pseudo_unitary_sample"),
    ("core", "matrix_exp"),
    ("core", "herm_gram"),
    ("core", "hol_volume"),
)

# Patch callables wrapped on the patches that build_family and
# hamiltonian_perturb return; they report calls, points and time.
JETS = ("families.jet_f", "families.jet_d1", "families.jet_d2", "calibration.deformed_f")

SPAN_FUNCTIONS = tuple(f"{mod}.{name}" for mod, name in TRACED)


def _points(u) -> int:
    """Parameter points in one patch-callable argument of shape (..., n)."""
    return math.prod(getattr(u, "shape", (1,))[:-1])


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._rebound = []

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span; ``before(args, kwargs)`` and
        ``after(result, args)`` may update counters or rewrap the result."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            return result if after is None else after(result, args)

        return traced

    def _jet(self, name, fn):
        def count(args, kwargs):
            self.counters[name + ".points"] += _points(args[0])
        return self.wrap(name, fn, before=count)

    def _wrap_patch(self, patch, names):
        jets = {attr: self._jet(name, getattr(patch, attr))
                for attr, name in names.items() if getattr(patch, attr) is not None}
        return dataclasses.replace(patch, **jets)

    # hooks for functions whose arguments or results carry counters

    def _after_build(self, patch, args):
        return self._wrap_patch(patch, {"f": "families.jet_f", "d1": "families.jet_d1",
                                        "d2": "families.jet_d2"})

    def _before_perturb(self, args, kwargs):
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        grid = kwargs.get("grid") or (args[3] if len(args) > 3
                                      else sys.modules["lagcal.calibration"].FLOW_GRID)
        self.counters["calibration.hamiltonian_perturb.steps"] += spec.steps
        # RK4 evaluates the flow field four times per step on every grid point.
        self.counters["calibration.flow_point_evals"] += 4 * grid[0] * grid[1] * spec.steps

    def _after_perturb(self, patch, args):
        return self._wrap_patch(patch, {"f": "calibration.deformed_f"})

    def _after_compare(self, report, args):
        self.counters["calibration.competitors"] += len(report.results)
        self.counters["calibration.competitors_ok"] += sum(
            1 for r in report.results if r.status == "ok")
        return report

    def _after_emit(self, paths, args):
        self.counters["cli.emit_report.bytes"] += sum(os.path.getsize(p) for p in paths)
        return paths

    def install(self):
        """Wrap every TRACED function and rebind it across ``lagcal`` modules."""
        hooks = {
            "families.build_family": (None, self._after_build),
            "calibration.hamiltonian_perturb": (self._before_perturb, self._after_perturb),
            "calibration.volume_compare": (None, self._after_compare),
            "cli.emit_report": (None, self._after_emit),
        }
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "lagcal" or key.startswith("lagcal."))]
        for mod, fname in TRACED:
            original = getattr(sys.modules[f"lagcal.{mod}"], fname)
            before, after = hooks.get(f"{mod}.{fname}", (None, None))
            traced = self.wrap(f"{mod}.{fname}", original, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._rebound.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()


def summarize(spans, counters):
    """Per-name calls, total time and self time (time not covered by child spans)."""
    calls = Counter()
    total = defaultdict(float)
    covered = defaultdict(float)
    for name, start, end, parent in spans:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            covered[parent] += end - start
    self_time = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        self_time[name] += (end - start) - covered.get(index, 0.0)
    return {"calls": dict(calls), "s": dict(total), "self_s": dict(self_time),
            "counters": dict(counters)}
