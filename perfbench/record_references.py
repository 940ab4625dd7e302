"""Record the reference report scalars for every workload and seed variant.

Usage (from the repository root): python3 perfbench/record_references.py [WORKLOAD ...]

Runs each named workload (default: all) once per variant with the current
sources and updates its entries in perfbench/references.json.  Re-record only for a change that is meant to
alter the numbers, and state the size of the drift with it.
"""

import json
import os
import sys

import run
import workloads


def main(names):
    with open(run.REFERENCES) as handle:
        references = json.load(handle)
    for name in names or workloads.WORKLOADS:
        w = workloads.WORKLOADS[name]
        references[name] = {}
        for variant in range(workloads.VARIANTS):
            rep_dir = os.path.join(run.OUT, "references", name)
            _, outputs, problems = run.run_child(workloads.configs(name, variant), False,
                                                 rep_dir, min(os.sched_getaffinity(0)))
            failed = [e for e in w.experiments
                      if e not in outputs or outputs[e][0].get("passed") is not True]
            if problems or failed:
                print(f"{name} variant {variant}: {problems or failed}", file=sys.stderr)
                return 1
            references[name][str(variant)] = {
                e: workloads.key_scalars(e, outputs[e][0]) for e in w.experiments}
            print(f"{name} variant {variant}: recorded", flush=True)
    with open(run.REFERENCES, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
