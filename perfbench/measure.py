"""Child-process side of the benchmark: set-up probes and measured runs.

``run.py`` starts this module in fresh processes (never imports it), so
that ``setup_s`` is a cold start and ``peak_rss_mib`` is the workload's own
memory::

    python3 perfbench/measure.py setup   --workload W --seed S
    python3 perfbench/measure.py measure --workload W --seed S \\
        --seconds T --trace 0|1 --scratch DIR

Each prints one JSON object as its last line.  Host times are reported at
the reference speed of ``speed.py``: set-up probes are sampled from
start-up on, measured campaigns one by one.
"""

from __future__ import annotations

import time

START = time.perf_counter()     # before repro is imported: setup_s is cold

from speed import SpeedProbe    # noqa: E402

PROBE = SpeedProbe()
PROBE.start()

import argparse                 # noqa: E402
import json                     # noqa: E402
import os                       # noqa: E402
import platform                 # noqa: E402
import resource                 # noqa: E402
import statistics               # noqa: E402
import sys                      # noqa: E402
import traceback                # noqa: E402
from typing import Dict, List   # noqa: E402

import numpy as np              # noqa: E402

from repro.fleet import solver_pool                            # noqa: E402
from repro.tinympc import kernel_backend_info, use_compiled_kernels  # noqa: E402

import workloads                # noqa: E402
from tracer import Stat, Tracer  # noqa: E402

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mib(workers: int) -> float:
    """This process's peak RSS plus, for worker pools, ``workers`` times the
    largest worker's peak (rusage reports only the largest child)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers <= 1:
        return own / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


class Checker:
    """Failure accounting against the recorded reference outcomes."""

    def __init__(self, workload) -> None:
        with open(REFERENCE) as handle:
            reference = json.load(handle)
        self.expected = workload.recorded(reference.get(workload.name, {}))
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.problems: List[str] = []

    def check(self, run: "workloads.CampaignRun") -> None:
        self.attempted += run.episodes
        failed = run.extra_failures
        if run.extra_failures:
            self.problems.append("{} promoted points differ between model "
                                 "and trace".format(run.extra_failures))
        missing = sum(1 for outcome in run.outcomes if outcome is None)
        if missing:
            self.problems.append("{} episodes returned no result".format(
                missing))
        if self.expected is None:
            self.problems.append("no recorded reference for this seed")
            failed += len(run.outcomes)
        else:
            mismatched = sum(1 for got, want in zip(run.outcomes,
                                                    self.expected)
                             if got is None or got != want)
            mismatched += abs(len(run.outcomes) - len(self.expected))
            if mismatched - missing:
                self.problems.append(
                    "{} episodes differ from the recorded reference".format(
                        mismatched - missing))
            failed += mismatched
        self.failed += failed
        self.max_rel_err = max(self.max_rel_err, run.max_rel_err)

    def raised(self, episodes: int) -> None:
        """A campaign raised: all its episodes count as attempted and failed."""
        self.attempted += episodes
        self.failed += episodes
        self.problems.append("a campaign raised (traceback on stderr)")


def layer_metrics(tracer: Tracer, run, workers: int, parent_cpu: float,
                  workers_cpu: float, pool_acquires: int,
                  pool_hits: int) -> Dict[str, float]:
    """The per-layer metrics of one traced campaign."""
    def stat(name: str) -> Stat:
        return tracer.stats.get(name) or Stat()

    counters = tracer.counters
    batch_calls = stat("tinympc.batch_solve").calls
    evaluate = stat("design_point.evaluate").calls
    computed = (stat("arch.model_report").calls
                + stat("codegen.compile").calls)
    report = run.report
    supervised = report is not None
    wall = run.seconds
    return {
        "drone.step.calls": stat("drone.step").calls,
        "drone.step.busy_s": stat("drone.step").busy_s,
        "drone.has_crashed.busy_s": stat("drone.has_crashed").busy_s,
        "hil.episode.self_s": stat("hil.episode").self_s,
        "hil.soc_compile.calls": stat("hil.soc_compile").calls,
        "hil.soc_compile.busy_s": stat("hil.soc_compile").busy_s,
        "tinympc.batch_solve.calls": batch_calls,
        "tinympc.batch_solve.busy_s": stat("tinympc.batch_solve").busy_s,
        "tinympc.batch_solve.mean_width": (
            counters.get("batch_width", 0) / batch_calls
            if batch_calls else 0.0),
        "tinympc.scalar_solve.calls": stat("tinympc.scalar_solve").calls,
        "tinympc.scalar_solve.busy_s": stat("tinympc.scalar_solve").busy_s,
        "tinympc.slot_io.calls": stat("tinympc.slot_io").calls,
        "tinympc.slot_io.busy_s": stat("tinympc.slot_io").busy_s,
        "tinympc.admm_iterations": counters.get("admm_iterations", 0),
        "fleet.build.calls": stat("fleet.build").calls,
        "fleet.build.busy_s": stat("fleet.build").busy_s,
        "fleet.scheduler.self_s": stat("fleet.scheduler").self_s,
        "fleet.scheduler.dispatches": run.stats.dispatches,
        "fleet.scheduler.slot_fill": (
            counters.get("batch_fill", 0) / batch_calls
            if batch_calls else 0.0),
        "fleet.pool.hit_ratio": (pool_hits / pool_acquires
                                 if pool_acquires else 0.0),
        "fleet.aggregate.busy_s": stat("fleet.aggregate").busy_s,
        "fleet.supervisor.fresh_chunks": (report.fresh_chunks
                                          if supervised else 0),
        "fleet.supervisor.retries": report.retries if supervised else 0,
        "fleet.supervisor.quarantined": (report.quarantined
                                         if supervised else 0),
        "fleet.supervisor.spawned_workers": (report.spawned_workers
                                             if supervised else 0),
        "fleet.supervisor.parent_cpu_s": parent_cpu if supervised else 0.0,
        "fleet.workers.cpu_s": workers_cpu if supervised else 0.0,
        "fleet.workers.utilization": (workers_cpu / (wall * workers)
                                      if supervised else 0.0),
        "fleet.journal.bytes": run.journal_bytes,
        "design_point.evaluate.calls": evaluate,
        "design_point.evaluate.self_s": stat("design_point.evaluate").self_s,
        "design_point.fingerprint.busy_s": stat(
            "design_point.fingerprint").busy_s,
        "design_point.cache_hit_ratio": ((evaluate - computed) / evaluate
                                         if evaluate else 0.0),
        "design_point.resolve_program.busy_s": stat(
            "design_point.resolve_program").busy_s,
        "arch.model_report.calls": stat("arch.model_report").calls,
        "arch.model_report.busy_s": stat("arch.model_report").busy_s,
        "codegen.compile.calls": stat("codegen.compile").calls,
        "codegen.compile.busy_s": stat("codegen.compile").busy_s,
        "trace.unattributed_frac": 1.0 - tracer.top_ns * 1e-9 / wall,
        "trace.wall_s": wall,
    }


def traced_run(workload, tracer: Tracer):
    """One campaign with every layer wrapped -> ``(run, layer metrics)``."""
    pool = solver_pool()
    acquires, hits = pool.acquires, pool.hits
    parent_cpu = cpu_seconds(resource.RUSAGE_SELF)
    workers_cpu = cpu_seconds(resource.RUSAGE_CHILDREN)
    tracer.reset()
    tracer.install()
    try:
        run = workload.run()
    finally:
        tracer.uninstall()
    metrics = layer_metrics(
        tracer, run, workload.workers,
        cpu_seconds(resource.RUSAGE_SELF) - parent_cpu,
        cpu_seconds(resource.RUSAGE_CHILDREN) - workers_cpu,
        pool.acquires - acquires, pool.hits - hits)
    return run, metrics


def measure(args) -> Dict[str, object]:
    workload = workloads.make_workload(args.workload, args.seed, args.scratch)
    checker = Checker(workload)
    workload.setup()

    def attempt(campaign):
        """Run one campaign; a raised exception fails all its episodes."""
        try:
            return campaign()
        except Exception:
            traceback.print_exc()
            checker.raised(workload.spec.size)
            return None

    plain: List[float] = []          # untraced campaign seconds
    slowdowns: List[float] = []      # host slowdown over each of them
    rates: List[float] = []          # their episodes per reference second
    traced: List[Dict[str, float]] = []
    tracer = Tracer()
    # Untimed warm-up: fills the process solver pool and lazy tables, so
    # timed runs measure the steady state (see README "Where costs land").
    last = attempt(workload.run)
    if last is not None:
        checker.check(last)
    deadline = time.perf_counter() + args.seconds
    while last is not None and (not plain or (args.trace and not traced)
                                or time.perf_counter() < deadline):
        if args.trace and len(traced) < len(plain):
            outcome = attempt(lambda: traced_run(workload, tracer))
            last, metrics = outcome or (None, None)
            if last is None:
                break
            traced.append(metrics)
        else:
            PROBE.clear()
            last = attempt(workload.run)
            if last is None:
                break
            plain.append(last.seconds)
            if not args.trace:
                busy_s, slowdown = PROBE.take()
                slowdowns.append(slowdown)
                rates.append(last.episodes * slowdown
                             / (last.seconds - busy_s))
        checker.check(last)

    result: Dict[str, object] = {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "campaigns": len(plain) + len(traced),
        "campaign_seconds": plain,
        "slowdowns": slowdowns,
        "metrics": {},
    }
    if last is None:                 # a campaign raised: nothing to report
        return result
    if args.trace:
        layers = {name: statistics.median(m[name] for m in traced)
                  for name in traced[0]}
        layers["trace.overhead_frac"] = (layers["trace.wall_s"]
                                         / statistics.median(plain) - 1.0)
        layers["failed_fraction"] = checker.failed / checker.attempted
        layers["model_trace_max_rel_err"] = checker.max_rel_err
        result["metrics"] = layers
    else:
        result["metrics"] = {
            "episodes_per_s": statistics.median(rates),
            "peak_rss_mib": peak_rss_mib(workload.workers),
            "sim_success_rate": last.successes / last.success_total,
        }
    return result


def environment() -> Dict[str, object]:
    backend = kernel_backend_info()
    return {"backend": backend["name"], "kernel_threads": backend["threads"],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measure for this long (measure role)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", default=None)
    args = parser.parse_args(argv)

    if args.role == "measure" and args.trace:
        PROBE.stop()                # traced runs report no host times
    # Pin the measured kernel backend whatever REPRO_KERNEL_BACKEND says.
    with use_compiled_kernels("numpy"):
        if args.role == "setup":
            workload = workloads.make_workload(args.workload, args.seed,
                                               args.scratch)
            workload.setup()
            host_s = time.perf_counter() - START
            busy_s, slowdown = PROBE.take()
            payload = {"setup_s": (host_s - busy_s) / slowdown,
                       "slowdown": slowdown}
        else:
            payload = measure(args)
            payload["env"] = environment()
    PROBE.stop()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
