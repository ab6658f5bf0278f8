"""Figure 17: impact of vectorization on disturbance recovery.

Beyond the paper-shape assertions, this module is the perf-regression
harness for the fleet-batched Fig. 17 sweep: the full suite (scalar +
vector x 14 disturbances) is timed both as the serial per-episode
``run_disturbance`` stream and as one batched recovery campaign, and the
speedup is asserted and recorded in ``BENCH_fig17.json``.  The per-tick
wrench path's zero-allocation discipline is tier-1 coverage now
(``tests/drone/test_wrench_allocations.py``).
"""

import os
import time

import numpy as np
import pytest

from repro.bench import write_bench_report
from repro.experiments import fig17_disturbance_recovery
from repro.fleet import CampaignSpec, SolverPool, run_campaign
from repro.fleet import scheduler as fleet_scheduler
from repro.hil import HILConfig, HILLoop

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

# The batched sweep packs all 28 episodes into one GEMM group; anything
# under ~2x means the fleet path has regressed to serial-like dispatch.
FIG17_SPEEDUP_FLOOR = 1.5 if SMOKE else 2.0


def test_fig17_disturbance_recovery(benchmark, show_rows):
    rows = benchmark.pedantic(fig17_disturbance_recovery,
                              kwargs=dict(frequency_mhz=100.0),
                              rounds=1, iterations=1)
    show_rows("Figure 17: disturbance recovery time", rows)
    assert {row["category"] for row in rows} == {"force", "torque", "combined"}
    # The vector implementation recovers at least as many disturbances as the
    # scalar one and is never slower on average where both recover.
    for row in rows:
        assert row["vector_recovered"] >= row["scalar_recovered"]
    improvements = [row["ttr_improvement_pct"] for row in rows
                    if "ttr_improvement_pct" in row
                    and np.isfinite(row.get("ttr_improvement_pct", float("nan")))]
    if improvements:
        assert max(improvements) > -20.0


@pytest.mark.bench
def test_fig17_fleet_speedup_and_equivalence(show_rows):
    """Serial run_disturbance stream vs the batched recovery campaign."""
    spec = CampaignSpec(name="fig17", episode_kind="recovery",
                        implementations=("scalar", "vector"))
    episodes = spec.expand()
    assert len(episodes) == 28           # 2 implementations x 14 disturbances

    # Serial reference: one run_disturbance per episode; loops (and their
    # compiled SoC models) built outside the timed region.
    loops = {}
    for episode in episodes:
        if episode.implementation not in loops:
            loops[episode.implementation] = HILLoop(episode.hil_config())
    start = time.perf_counter()
    serial = [loops[e.implementation].run_disturbance(
        e.disturbance, e.hold_position, e.recovery_duration)
        for e in episodes]
    serial_seconds = time.perf_counter() - start

    # Best-of-2 on the fleet side with a fresh SolverPool per run, so the
    # measurement includes solver construction — same protocol as
    # benchmarks/test_fleet_throughput.py.
    saved_pool = fleet_scheduler._GLOBAL_POOL
    try:
        fleet_seconds = float("inf")
        outcome = None
        for _ in range(2):
            fleet_scheduler._GLOBAL_POOL = SolverPool()
            start = time.perf_counter()
            result = run_campaign(spec)
            fleet_seconds = min(fleet_seconds, time.perf_counter() - start)
            outcome = outcome or result
    finally:
        fleet_scheduler._GLOBAL_POOL = saved_pool

    # Same episodes on both paths: discrete recovery outcomes must agree
    # exactly, TTR/max-deviation to GEMM round-off.
    for reference, result in zip(serial, outcome.results):
        assert result.recovered == reference.recovered
        assert ((result.time_to_recovery is None)
                == (reference.time_to_recovery is None))
        if reference.time_to_recovery is not None:
            assert abs(result.time_to_recovery
                       - reference.time_to_recovery) < 1e-9
        assert (result.max_deviation == reference.max_deviation
                or abs(result.max_deviation - reference.max_deviation) < 1e-9)

    speedup = serial_seconds / fleet_seconds
    path = write_bench_report("fig17", {
        "episodes": len(episodes),
        "serial_s": serial_seconds,
        "fleet_s": fleet_seconds,
        "episodes_per_second": len(episodes) / fleet_seconds,
        "mean_batch_width": outcome.stats.mean_batch_width,
        "speedup": speedup,
    }, smoke=SMOKE)
    show_rows("Fig. 17 full suite (28 recovery episodes), written to {}"
              .format(path), [{
                  "variant": "serial run_disturbance stream",
                  "seconds": serial_seconds,
                  "speedup": 1.0,
              }, {
                  "variant": "fleet recovery campaign (batched)",
                  "seconds": fleet_seconds,
                  "speedup": speedup,
              }])
    assert outcome.stats.mean_batch_width > 8.0, \
        "batcher failed to pack the suite (mean width {:.1f})".format(
            outcome.stats.mean_batch_width)
    assert speedup >= FIG17_SPEEDUP_FLOOR, \
        "fleet Fig. 17 sweep only {:.2f}x faster than serial".format(speedup)
