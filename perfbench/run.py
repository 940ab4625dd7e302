"""Benchmark of the lagcal experiments, end to end and per module.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs the workload in a fresh interpreter (perfbench/child.py)
with ``src`` on the import path, pinned to one CPU (alternating between the
CPUs the run may use), checks every output file against the references
recorded for the seed, and times it.  Repetitions follow each other (a
closed loop with one client) until the next one would end after ``S``
seconds, with at least MIN_REPS of them.

``--trace 0`` reports the end-to-end metrics: the fastest repetition for
``wall_s`` and ``experiment_s`` (host interference only adds time, see
NOTES.md), the median for ``setup_s`` and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-module
metrics of the traced ones, plus the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Run files go to ``.perfbench/`` in the repository root.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import JETS, SPAN_FUNCTIONS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCES = os.path.join(HERE, "references.json")
OUT = os.path.join(ROOT, ".perfbench")

MIN_REPS = 3
MIN_TRACED_REPS = 4          # two untraced, two traced
TIME_LIMIT_S = 170           # the whole run, warm-up included
THREAD_VARIABLES = ("LAGCAL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("experiment_s", "s"), ("peak_rss_mb", "MB"))
STATISTIC = {"wall_s": min, "setup_s": statistics.median, "experiment_s": min,
             "peak_rss_mb": statistics.median}


def per_layer_metrics():
    """(name, unit) of every metric a traced run reports."""
    out = []
    for name in SPAN_FUNCTIONS:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.self_s", "s")]
    for name in JETS:
        out += [(f"{name}.calls", "count"), (f"{name}.points", "count"), (f"{name}.s", "s")]
    return out + [
        ("cli.emit_report.bytes", "bytes"),
        ("calibration.hamiltonian_perturb.s_per_step", "s"),
        ("calibration.flow_point_evals_per_s", "1/s"),
        ("calibration.competitors_ok_ratio", "ratio"),
        ("setup.import_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("LAGCAL_THREADS", None)  # the CLI default: one worker
    # Users import from cached bytecode; the warm-up repetition writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(experiments, trace, rep_dir, cpu, timeout=TIME_LIMIT_S):
    """Run one repetition on ``cpu``; returns (result or None, {experiment: (report, rows)},
    problems)."""
    os.makedirs(rep_dir, exist_ok=True)
    job = {"trace": trace, "cpu": cpu, "experiments": [],
           "result_file": os.path.join(rep_dir, "result.json"),
           "span_file": os.path.join(rep_dir, "spans.json")}
    for experiment, config in experiments:
        out = os.path.join(rep_dir, experiment)
        shutil.rmtree(out, ignore_errors=True)
        job["experiments"].append({"config": config, "out": out})
    for stale in (job["result_file"], job["span_file"]):
        if os.path.exists(stale):
            os.remove(stale)
    job_path = os.path.join(rep_dir, "job.json")
    with open(job_path, "w") as handle:
        json.dump(job, handle)

    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, job_path], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, {}, [f"repetition exceeded {timeout:.0f} s"]
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, {}, [f"child exited with {proc.returncode}: {tail[0]}"]
    with open(job["result_file"]) as handle:
        result = json.load(handle)
    result["wall_s"] = result["written_monotonic"] - spawned

    outputs = {}
    problems = []
    for (experiment, _), spec in zip(experiments, job["experiments"]):
        try:
            with open(os.path.join(spec["out"], "report.json")) as handle:
                report = json.load(handle)
            with open(os.path.join(spec["out"], "samples.csv")) as handle:
                rows = sum(1 for _ in handle) - 1
        except (OSError, ValueError) as exc:
            problems.append(f"{experiment}: unreadable output: {exc}")
            continue
        outputs[experiment] = (report, rows)
    return result, outputs, problems


def check(name, seed, outputs, result, references):
    """Output check against the seed's references, plus the traced call counts."""
    w = workloads.WORKLOADS[name]
    reference = references.get(name, {}).get(str(workloads.variant(seed)))
    problems = []
    if reference is None:
        problems.append(f"no reference recorded for {name} variant {workloads.variant(seed)}")
    else:
        for experiment, (report, rows) in outputs.items():
            problems += workloads.check_report(experiment, report, rows,
                                               reference[experiment], w.samples)
    for experiment, calls in zip(w.experiments, result.get("experiment_calls", [])):
        want = workloads.expected_calls(experiment, w.samples, w.signature["n"])
        for span, count in want.items():
            if calls.get(span, 0) != count:
                problems.append(f"{experiment}: {span} called {calls.get(span, 0)} times, "
                                f"expected {count}")
    return problems


def per_layer(traced, untraced):
    """Per-module metrics of the traced repetitions.

    Counts come from the first traced repetition (all must agree); times
    are minima over traced repetitions, like the end-to-end times.
    """
    first = traced[0]["trace"]
    counters = first["counters"]

    def fastest(kind, name):
        return min(r["trace"][kind].get(name, 0.0) for r in traced)

    values = {}
    for name in SPAN_FUNCTIONS:
        values[f"{name}.calls"] = first["calls"].get(name, 0)
        values[f"{name}.s"] = fastest("s", name)
        values[f"{name}.self_s"] = fastest("self_s", name)
    for name in JETS:
        values[f"{name}.calls"] = first["calls"].get(name, 0)
        values[f"{name}.points"] = counters.get(f"{name}.points", 0)
        values[f"{name}.s"] = fastest("s", name)
    flow_s = values["calibration.hamiltonian_perturb.s"]
    steps = counters.get("calibration.hamiltonian_perturb.steps", 0)
    competitors = counters.get("calibration.competitors", 0)
    values["cli.emit_report.bytes"] = counters.get("cli.emit_report.bytes", 0)
    # Ratios over work this workload does not do (no flow) are reported as 0.
    values["calibration.hamiltonian_perturb.s_per_step"] = flow_s / steps if steps else 0.0
    values["calibration.flow_point_evals_per_s"] = (
        counters.get("calibration.flow_point_evals", 0) / flow_s if flow_s else 0.0)
    values["calibration.competitors_ok_ratio"] = (
        counters.get("calibration.competitors_ok", 0) / competitors if competitors else 0.0)
    values["setup.import_s"] = statistics.median(r["import_s"] for r in traced)
    plain = min(r["experiment_s"] for r in untraced)
    values["trace.overhead_s"] = min(r["experiment_s"] for r in traced) - plain
    values["trace.overhead_ratio"] = values["trace.overhead_s"] / plain
    return values


def environment(child_environment):
    env = {"nproc": os.cpu_count(), "platform": platform.platform(),
           "threads": {k: os.environ.get(k) for k in THREAD_VARIABLES}}
    env.update(child_environment)
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "lagcal", "cli.py")):
        print(f"error: no lagcal sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(REFERENCES) as handle:
        references = json.load(handle)

    started = time.monotonic()
    name, trace = args.workload, bool(args.trace)
    experiments = workloads.configs(name, args.seed)
    run_dir = os.path.join(OUT, name)
    # Warm-up: byte-compile the sources and fill the file cache, untimed.
    cpus = sorted(os.sched_getaffinity(0))
    warm, _, problems = run_child([], False, os.path.join(run_dir, "warmup"), cpus[0])
    if warm is None:
        print(f"error: warm-up failed: {problems[0]}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + args.seconds
    min_reps = MIN_TRACED_REPS if trace else MIN_REPS
    reps = []
    failures = []
    while True:
        traced = trace and len(reps) % 2 == 1
        rep_dir = os.path.join(run_dir, "traced" if traced else "plain")
        cpu = cpus[(len(reps) // (2 if trace else 1)) % len(cpus)]
        began = time.monotonic()
        left = TIME_LIMIT_S - (began - started)
        if left <= 0:
            failures.append(f"stopped after {len(reps)} repetitions at the time limit")
            break
        result, outputs, problems = run_child(experiments, traced, rep_dir, cpu, left)
        if result is not None:
            problems += check(name, args.seed, outputs, result, references)
            result["traced"] = traced
            result["cpu"] = cpu
            result["duration_s"] = time.monotonic() - began
        reps.append(result)
        failures += [f"repetition {len(reps)}: {p}" for p in problems]
        if problems:
            reps[-1] = dict(result or {}, failed=True)
        next_traced = trace and len(reps) % 2 == 1
        durations = [r["duration_s"] for r in reps
                     if r and "duration_s" in r and r["traced"] == next_traced]
        next_s = durations[-1] if durations else 0.0
        if len(reps) >= min_reps and time.monotonic() + next_s > deadline:
            break

    timed = [r for r in reps if r and "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    traced_reps = [r for r in timed if r["traced"]]
    if not plain or (trace and not traced_reps):
        for line in failures:
            print(line, file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1

    if trace:
        if len({json.dumps(r["trace"]["calls"], sort_keys=True) for r in traced_reps}) > 1:
            failures.append("traced repetitions disagree on call counts")
        units = dict(per_layer_metrics())
        values = per_layer(traced_reps, plain)
    else:
        units = dict(END_TO_END)
        values = {metric: STATISTIC[metric](r[metric] for r in plain) for metric in units}

    failed = sum(1 for r in reps if r is None or r.get("failed"))
    if failed == 0 and failures:  # a run-level problem fails the last repetition
        failed = 1
    summary = {"correct": not failures, "attempted": len(reps), "failed": failed,
               "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    env = environment(timed[0]["environment"])
    with open(os.path.join(run_dir, "last_run.json"), "w") as handle:
        json.dump({"workload": name, "seed": args.seed, "trace": trace, "environment": env,
                   "repetitions": reps, "problems": failures, "summary": summary},
                  handle, indent=1)

    for line in failures:
        print(f"check failed: {line}")
    print(f"workload {name}, seed {args.seed}, {len(reps)} repetitions "
          f"({len(plain)} untraced, {len(traced_reps)} traced), {failed} failed")
    print("environment: " + json.dumps(env, sort_keys=True))
    for key in units:
        print(f"{key} = {values[key]!r} {units[key]}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
