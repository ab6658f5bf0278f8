"""Throughput of the fleet campaign engine vs sequential episode loops.

The fleet scheduler exists because heterogeneous HIL sweeps — the paper's
Figure 16/18 grids and anything bigger — used to fall back to one scalar
solve per control tick per episode.  This benchmark flies a *mixed*
32-episode campaign (2 difficulties x 8 seeds x 2 clock frequencies, so the
old lockstep runner could not have batched it as one grid) both ways and
asserts the event-driven dynamic batcher delivers at least 3x the
throughput of sequential :meth:`HILLoop.run_scenario` loops, while
reproducing every discrete per-episode outcome exactly.
"""

import time

import pytest

from repro.bench import write_bench_report
from repro.drone import generate_scenario
from repro.fleet import CampaignSpec, SolverPool, run_campaign
from repro.fleet import scheduler as fleet_scheduler
from repro.hil import HILLoop

CAMPAIGN = CampaignSpec(
    name="throughput", difficulties=("easy", "medium"),
    seeds=tuple(range(8)), frequencies_mhz=(100.0, 250.0))


@pytest.mark.bench
def test_fleet_campaign_at_least_3x(show_rows):
    episodes = CAMPAIGN.expand()
    assert len(episodes) == 32

    # Sequential reference: one run_scenario per episode, loops (and their
    # compiled SoC models) built outside the timed region.
    loops = {}
    for spec in episodes:
        key = (spec.implementation, spec.frequency_mhz)
        if key not in loops:
            loops[key] = HILLoop(spec.hil_config())
    scenarios = [generate_scenario(spec.difficulty, spec.seed)
                 for spec in episodes]

    start = time.perf_counter()
    sequential = [loops[(spec.implementation, spec.frequency_mhz)].run_scenario(scenario)
                  for spec, scenario in zip(episodes, scenarios)]
    sequential_seconds = time.perf_counter() - start

    # Best-of-2 on the fast side: a scheduler hiccup during a single fleet
    # run is the one thing that can deflate the measured ratio.  Each timed
    # run gets a fresh (empty) SolverPool so the measurement keeps its
    # meaning — dynamic batching vs the sequential loop, solver
    # construction included — regardless of what warmed the process-global
    # pool earlier in the session.
    saved_pool = fleet_scheduler._GLOBAL_POOL
    try:
        fleet_seconds = float("inf")
        outcome = None
        for _ in range(2):
            fleet_scheduler._GLOBAL_POOL = SolverPool()
            start = time.perf_counter()
            result = run_campaign(CAMPAIGN)
            fleet_seconds = min(fleet_seconds, time.perf_counter() - start)
            outcome = outcome or result
    finally:
        fleet_scheduler._GLOBAL_POOL = saved_pool

    # Same flights on both paths: every discrete outcome must agree.
    for reference, result in zip(sequential, outcome.results):
        assert result.success == reference.success
        assert result.crashed == reference.crashed
        assert result.solve_iterations == reference.solve_iterations
        assert result.flight_time_s == reference.flight_time_s

    speedup = sequential_seconds / fleet_seconds
    write_bench_report("fleet_throughput", {
        "episodes": len(episodes),
        "sequential_s": sequential_seconds,
        "fleet_s": fleet_seconds,
        "episodes_per_second": len(episodes) / fleet_seconds,
        "mean_batch_width": outcome.stats.mean_batch_width,
        "speedup": speedup,
    })
    show_rows("Fleet campaign throughput (32 mixed episodes)", [{
        "variant": "sequential run_scenario loop",
        "seconds": sequential_seconds,
        "episodes_per_second": len(episodes) / sequential_seconds,
        "speedup": 1.0,
    }, {
        "variant": "fleet scheduler (dynamic batching)",
        "seconds": fleet_seconds,
        "episodes_per_second": len(episodes) / fleet_seconds,
        "speedup": speedup,
    }])
    assert outcome.stats.mean_batch_width > 8.0, \
        "dynamic batcher failed to pack the grid (mean width {:.1f})".format(
            outcome.stats.mean_batch_width)
    assert speedup >= 3.0, \
        "fleet engine only {:.1f}x faster than sequential episodes".format(speedup)
