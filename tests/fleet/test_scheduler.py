"""Fleet/scalar equivalence and determinism of the campaign scheduler.

The contract under test (see :mod:`repro.fleet.scheduler`):

* with batching *off*, a campaign reproduces per-episode
  :meth:`HILLoop.run_scenario` results **bit-for-bit** — the episode
  refactor and scheduler bookkeeping add zero numerical deviation;
* with batching *on*, discrete outcomes (success, crashes, iteration
  counts, solve times, flight times) are exactly equal and float metrics
  agree to GEMM round-off;
* repeated runs are bit-for-bit identical, including across
  ``PYTHONHASHSEED`` values (exercised via subprocesses).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.drone import Difficulty, generate_scenario
from repro.fleet import (
    CampaignSpec,
    EpisodeFactory,
    EpisodeSpec,
    FleetScheduler,
    run_campaign,
)
from repro.hil import HILLoop

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))

# A deliberately heterogeneous grid: two difficulties, two clock
# frequencies, and two control rates (the latter linearize two different
# MPC problems, so the scheduler must juggle two batch groups).
MIXED = CampaignSpec(
    name="mixed", difficulties=("easy", "medium"), seeds=(0, 1),
    frequencies_mhz=(100.0, 250.0), control_rates_hz=(100.0, 50.0))


def sequential_reference(episodes):
    """Per-episode run_scenario results — the ground truth."""
    loops = {}
    results = []
    for spec in episodes:
        key = (spec.implementation, spec.frequency_mhz, spec.variant,
               spec.control_rate_hz, spec.max_admm_iterations)
        if key not in loops:
            loops[key] = HILLoop(spec.hil_config())
        results.append(loops[key].run_scenario(
            generate_scenario(spec.difficulty, spec.seed)))
    return results


@pytest.fixture(scope="module")
def mixed_reference():
    return sequential_reference(MIXED.expand())


def assert_discrete_exact(reference, result):
    assert result.success == reference.success
    assert result.crashed == reference.crashed
    assert result.solve_iterations == reference.solve_iterations
    assert result.solve_times == reference.solve_times
    assert result.flight_time_s == reference.flight_time_s


class TestFleetScalarEquivalence:
    def test_unbatched_campaign_bit_for_bit(self, mixed_reference):
        outcome = run_campaign(MIXED, batching=False)
        assert len(outcome.results) == len(mixed_reference)
        for reference, result in zip(mixed_reference, outcome.results):
            assert_discrete_exact(reference, result)
            # Scalar-path scheduling is the *same* solver code path as
            # run_scenario, so every float matches exactly.
            assert result.final_distance == reference.final_distance
            assert result.actuation_power_w == reference.actuation_power_w
            assert result.soc_power_w == reference.soc_power_w

    def test_batched_campaign_matches_sequential(self, mixed_reference):
        outcome = run_campaign(MIXED)
        assert outcome.stats.batched_solves > 0
        assert outcome.stats.groups == 2      # two control rates, two problems
        for reference, result in zip(mixed_reference, outcome.results):
            assert_discrete_exact(reference, result)
            assert result.final_distance == pytest.approx(
                reference.final_distance, rel=1e-6, abs=1e-9)
            assert result.actuation_power_w == pytest.approx(
                reference.actuation_power_w, rel=1e-6)
            assert result.soc_power_w == pytest.approx(
                reference.soc_power_w, rel=1e-6)

    def test_slot_sharing_preserves_results(self, mixed_reference):
        """A width cap forces episodes to share solver slots across
        dispatches; warm-start parking must keep outcomes identical."""
        outcome = run_campaign(MIXED, max_batch=3)
        assert outcome.stats.max_batch_width <= 3
        for reference, result in zip(mixed_reference, outcome.results):
            assert_discrete_exact(reference, result)
            assert result.final_distance == pytest.approx(
                reference.final_distance, rel=1e-6, abs=1e-9)

    def test_repeated_runs_bitwise_identical(self):
        first = run_campaign(MIXED)
        second = run_campaign(MIXED)
        for a, b in zip(first.results, second.results):
            assert a.final_distance == b.final_distance
            assert a.actuation_power_w == b.actuation_power_w
            assert a.solve_iterations == b.solve_iterations


class TestSchedulerMechanics:
    def test_empty_fleet(self):
        assert FleetScheduler([]).run() == []

    def test_duplicate_episode_ids_rejected(self):
        factory = EpisodeFactory()
        spec = EpisodeSpec(Difficulty.EASY, 0)
        episodes = [factory.build(spec, episode_id=3),
                    factory.build(spec, episode_id=3)]
        with pytest.raises(ValueError, match="duplicate"):
            FleetScheduler(episodes)

    def test_invalid_max_batch_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            FleetScheduler([], max_batch=0)

    def test_singleton_groups_use_scalar_path(self):
        factory = EpisodeFactory()
        episodes = [factory.build(EpisodeSpec(Difficulty.EASY, 0), 0),
                    factory.build(EpisodeSpec(Difficulty.EASY, 1,
                                              control_rate_hz=50.0), 1)]
        scheduler = FleetScheduler(episodes)
        scheduler.run()
        # Two groups of one episode each: everything solves on the scalar path.
        assert scheduler.stats.scalar_solves > 0
        assert scheduler.stats.batched_solves == 0

    def test_stats_accounting(self):
        outcome = run_campaign(CampaignSpec(difficulties="easy", seeds=(0, 1)))
        stats = outcome.stats
        assert stats.episodes == 2
        assert stats.solves == stats.batched_solves + stats.scalar_solves
        assert 0 < stats.mean_batch_width <= stats.max_batch_width
        row = stats.as_row()
        assert row["episodes"] == 2 and row["dispatches"] == stats.dispatches


_HASHSEED_PROBE = r"""
import hashlib, sys
sys.path.insert(0, {src!r})
from repro.drone import Difficulty, generate_scenario
from repro.fleet import CampaignSpec, run_campaign

digest = hashlib.sha256()
for difficulty in Difficulty:
    for seed in range(3):
        scenario = generate_scenario(difficulty, seed)
        digest.update(repr(scenario.waypoints).encode())
outcome = run_campaign(CampaignSpec(
    difficulties="easy", seeds=(0,), implementations="ideal"))
digest.update(outcome.results[0].final_distance.hex().encode())
digest.update(repr(outcome.results[0].solve_iterations[:50]).encode())
print(digest.hexdigest())
"""


class TestHashSeedDeterminism:
    def test_campaign_stable_across_pythonhashseed(self):
        """Scenario generation and campaign results must not depend on the
        interpreter's hash salt (the old ``hash()``-seeded generator did)."""
        digests = []
        for hashseed in ("0", "424242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env.pop("PYTHONPATH", None)
            script = _HASHSEED_PROBE.format(
                src=os.path.join(REPO_ROOT, "src"))
            output = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=300)
            digests.append(output.stdout.strip())
        assert digests[0] == digests[1]
        assert len(digests[0]) == 64
