#!/usr/bin/env python3
"""Record the discrete outcomes the benchmark checks into reference.json.

Run from the repository root, only when a change is meant to alter
simulated outcomes::

    python3 perfbench/record_reference.py

It flies every recorded input set of the HIL workloads (one per seed slot)
and evaluates every (drone variant, horizon) program dse-frontier can draw,
under the same pinned environment as the benchmark.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT, child_env  # noqa: E402

os.environ.update(child_env())
sys.path[1:1] = [os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from repro.fleet import run_campaign  # noqa: E402
from repro.tinympc import use_compiled_kernels  # noqa: E402


def record_hil(name: str, scratch: str) -> dict:
    table = {}
    for slot in range(workloads.SLOTS):
        run = workloads.make_workload(name, slot, scratch).run()
        if None in run.outcomes:
            raise RuntimeError("{} slot {}: an episode returned no result"
                               .format(name, slot))
        table[str(slot)] = ",".join(run.outcomes)
        print("{} slot {}: {}/{} succeeded".format(
            name, slot, run.successes, run.success_total), flush=True)
    return table


def record_dse() -> dict:
    every = {variant: sorted({h for choices in workloads.HORIZON_BINS
                              for h in choices})
             for variant in sorted(workloads.all_variants())}
    programs = workloads.register_programs(every)
    sweep = run_campaign(workloads.design_campaign(programs))
    table = {}
    for result in sweep.results:
        table.setdefault(result.program, []).append(workloads.digest(
            [result.total_cycles, int(result.instruction_count)]))
    print("dse-frontier: {} programs, {} points".format(
        len(table), len(sweep.results)), flush=True)
    return {name: ",".join(digests) for name, digests in table.items()}


def main() -> int:
    scratch = os.path.join(ROOT, ".perfbench-record")
    os.makedirs(scratch, exist_ok=True)
    try:
        with use_compiled_kernels("numpy"):
            reference = {
                "dse-frontier": record_dse(),
                "waypoint-mixed": record_hil("waypoint-mixed", scratch),
                "recovery-durable": record_hil("recovery-durable", scratch),
            }
    finally:
        os.rmdir(scratch)
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
