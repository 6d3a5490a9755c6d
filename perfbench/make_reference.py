"""Write perfbench/reference.json: the outputs each seeded input set must reproduce.

Usage, from the root of a source checkout:

    python3 perfbench/make_reference.py [workload ...]

For every workload that has stored reference values (the train and eval
workloads) and every input seed below ``run.REFERENCE_SEEDS``, this sets
up the inputs once, runs the command untraced and records the per-epoch
train loss, or the eval reports' hidden variables, class counts, Brier
score and mean positive-class probability. Run it only when the program
is meant to change its results; the benchmark compares every run with
these values.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run


def main(names: list[str]) -> int:
    names = names or [n for n, w in run.WORKLOADS.items() if w.kind != "gradcheck"]
    reference = run._load_json(run.REFERENCE) if run.REFERENCE.is_file() else {}
    work = run.ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    try:
        for name in names:
            workload = run.WORKLOADS[name]
            table = reference.setdefault(name, {})
            for seed in range(run.REFERENCE_SEEDS):
                deadline = time.monotonic() + run.RUN_LIMIT_S
                target = work / f"{name}-{seed}"
                target.mkdir(parents=True)
                argv = workload.setup(target, seed, deadline)
                rep = run.run_rep(workload, argv, target / "rep", False, None, deadline,
                                  f"reference/{name}/{seed}")
                if rep.problems:
                    raise run.BenchmarkError(f"{name} seed {seed}: {rep.problems}")
                table[str(seed)] = run.reference_values(workload.kind, target / "rep" / "out")
                print(f"{name} seed {seed}: {table[str(seed)]}", flush=True)
                shutil.rmtree(target)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
