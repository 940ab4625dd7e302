"""One repetition of a workload, in a fresh interpreter, the way the CLI runs it.

Usage: python3 perfbench/child.py JOB.json

JOB.json names the experiments (config text and output directory), the
result file and, for a traced repetition, the span file.  The child
imports ``lagcal.cli`` (timed), then per experiment calls
``parse_config``, ``run_experiment`` and ``emit_report``.  ``build_family``
runs inside ``run_experiment``; its time is moved from the experiment to
set-up, so ``setup_s`` is import + parse_config + build_family and
``experiment_s`` is the rest of run_experiment.

Only the standard library is loaded before ``import lagcal.cli`` so that
import time is what a user of the CLI pays.
"""

import json
import os
import resource
import sys
import time
from collections import Counter


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(job_path):
    with open(job_path) as handle:
        job = json.load(handle)
    os.sched_setaffinity(0, {job["cpu"]})

    start = time.perf_counter()
    import lagcal.cli as cli
    import_s = time.perf_counter() - start

    tracer = None
    if job["trace"]:
        from tracer import Tracer, summarize

        tracer = Tracer()
        tracer.install()

    build_s = 0.0
    build_family = cli.build_family

    def timed_build_family(spec):
        nonlocal build_s
        begin = time.perf_counter()
        try:
            return build_family(spec)
        finally:
            build_s += time.perf_counter() - begin

    cli.build_family = timed_build_family
    parse_s = run_s = emit_s = 0.0
    experiment_calls = []
    try:
        for experiment in job["experiments"]:
            first_span = len(tracer.spans) if tracer else 0
            t0 = time.perf_counter()
            cfg = cli.parse_config(experiment["config"])
            t1 = time.perf_counter()
            report = cli.run_experiment(cfg)
            t2 = time.perf_counter()
            cli.emit_report(report, experiment["out"])
            t3 = time.perf_counter()
            parse_s += t1 - t0
            run_s += t2 - t1
            emit_s += t3 - t2
            if tracer:
                experiment_calls.append(Counter(s[0] for s in tracer.spans[first_span:]))
        written = time.monotonic()
    finally:
        cli.build_family = build_family
        if tracer:
            tracer.uninstall()

    result = {
        "written_monotonic": written,
        "import_s": import_s,
        "setup_s": import_s + parse_s + build_s,
        "experiment_s": run_s - build_s,
        "emit_s": emit_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(),
    }
    if tracer:
        result["trace"] = summarize(tracer.spans, tracer.counters)
        result["experiment_calls"] = experiment_calls
        with open(job["span_file"], "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans},
                      handle, separators=(",", ":"))
    with open(job["result_file"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1])
