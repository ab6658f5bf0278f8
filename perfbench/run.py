#!/usr/bin/env python3
"""The repository benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload waypoint-mixed --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (host time, tracing off);
``--trace 1`` prints the per-layer metrics of a separate traced run.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the host environment and every metric with its unit.  The exit status
is non-zero when an output check failed or the benchmark could not run.

``setup_s`` is the median of several cold set-up probes, each a fresh
process; the measured run is one more fresh process (``measure.py``), so
its peak memory is the workload's own.  Host times (``episodes_per_s``,
``setup_s``) are given at the reference CPU speed of ``speed.py``; the
comment lines show the host slowdown each was corrected by.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Also defined in workloads.py, which this process must not import: it
# imports repro, and the orchestrator stays out of the measured processes.
WORKLOADS = ("waypoint-mixed", "recovery-durable", "dse-frontier")
# Timed cold set-up probes per run, after one untimed probe that warms the
# OS file cache.
SETUP_PROBES = 5
# Every child must finish well inside the benchmark's 180 s budget.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"episodes_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mib": "MiB", "sim_success_rate": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(".mean_width"):
        return "slots"
    if name.endswith((".calls", ".dispatches", "_chunks", ".retries",
                      ".quarantined", "_workers", "_iterations")):
        return "count"
    return "ratio"


def child_env() -> dict:
    """Environment of every child: the repo's sources, numpy kernels on one
    thread, single-threaded BLAS."""
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join((os.path.join(ROOT, "src"), HERE)),
        "REPRO_KERNEL_BACKEND": "numpy",
        "REPRO_KERNEL_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


class ChildFailed(RuntimeError):
    pass


def run_child(args, deadline: float) -> dict:
    """Run ``measure.py`` with ``args``; its last stdout line is JSON."""
    command = [sys.executable, os.path.join(HERE, "measure.py")] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before {}".format(" ".join(args[:1])))
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired:
        raise ChildFailed("{} timed out".format(" ".join(args[:3])))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed("{} exited with status {}".format(
            " ".join(args[:3]), done.returncode))
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_s, setup_slowdowns = [], []
        if not args.trace:
            for probe in range(SETUP_PROBES + 1):
                payload = run_child(["setup"] + common, deadline)
                if probe:
                    setup_s.append(payload["setup_s"])
                    setup_slowdowns.append(payload["slowdown"])
        measured = run_child(
            ["measure"] + common + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace),
                                    "--scratch", scratch], deadline)
    except (ChildFailed, ValueError, KeyError) as error:
        print("benchmark failed: {}".format(error), file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = measured["metrics"]
    if args.trace:
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics["setup_s"] = statistics.median(setup_s)
        units = END_TO_END_UNITS
    correct = measured["failed"] == 0 and not measured["problems"]

    print("# workload {} seed {} trace {}: {} campaigns".format(
        args.workload, args.seed, args.trace, measured["campaigns"]))
    print("# untraced campaign seconds: {}".format(" ".join(
        "{:.3f}".format(seconds) for seconds in measured["campaign_seconds"])))
    if measured["slowdowns"]:
        print("# host slowdown per campaign: {}".format(" ".join(
            "{:.2f}".format(factor) for factor in measured["slowdowns"])))
    if setup_s:
        print("# setup probe seconds (reference speed): {}".format(" ".join(
            "{:.3f}".format(seconds) for seconds in setup_s)))
        print("# host slowdown per setup probe: {}".format(" ".join(
            "{:.2f}".format(factor) for factor in setup_slowdowns)))
    print("# env {}".format(json.dumps(measured["env"], sort_keys=True)))
    for problem in dict.fromkeys(measured["problems"]):
        print("# FAILED CHECK: {}".format(problem))
    for name in sorted(metrics):
        print("{:40s} {:>16.6g} {}".format(name, metrics[name], units[name]))
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
