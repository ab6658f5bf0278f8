"""Fleet/scalar equivalence and determinism of the campaign scheduler.

The contract under test (see :mod:`repro.fleet.scheduler`):

* with batching *off*, a campaign reproduces per-episode
  :meth:`HILLoop.run_scenario` results **bit-for-bit** — the episode
  refactor and scheduler bookkeeping add zero numerical deviation;
* with batching *on*, discrete outcomes (success, crashes, iteration
  counts, solve times, flight times) are exactly equal and float metrics
  agree to GEMM round-off;
* repeated runs are bit-for-bit identical, including across
  ``PYTHONHASHSEED`` values (exercised via subprocesses);
* every result field of a set of batched, narrow-lease, scalar, recovery
  and ideal campaigns equals the rows pinned in
  ``fixtures/hil_rows.json`` (re-record with
  ``PYTHONPATH=src python tests/fleet/test_scheduler.py``).
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.drone import (
    Difficulty,
    Disturbance,
    DisturbanceCategory,
    DisturbanceType,
    DrydenGust,
    compiled_plant,
    generate_scenario,
    quadrotor,
)
from repro.fleet import (
    CampaignSpec,
    EpisodeFactory,
    EpisodeSpec,
    FleetScheduler,
    SchedulerStats,
    SolverPool,
    run_campaign,
)
from repro.fleet.durable import result_to_dict
from repro.hil import HILLoop, SensorFaults
from repro.tinympc import BatchTinyMPCSolver, use_compiled_kernels

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))

needs_compiled_plant = pytest.mark.skipif(
    compiled_plant.library() is None,
    reason="no C toolchain: {}".format(compiled_plant.failure()))

# A deliberately heterogeneous grid: two difficulties, two clock
# frequencies, and two control rates (the latter linearize two different
# MPC problems, so the scheduler must juggle two batch groups).
MIXED = CampaignSpec(
    name="mixed", difficulties=("easy", "medium"), seeds=(0, 1),
    frequencies_mhz=(100.0, 250.0), control_rates_hz=(100.0, 50.0))

# A recovery sweep over the scenario-diversity axes: classic step/impulse
# events, a Dryden gust and a torque step that flips the drone, on a 1.3x
# payload, with a noisy, late and lossy estimator, across scalar/vector/
# ideal controllers that share one group.
_FAULTS = SensorFaults(noise_std=0.003, latency_s=0.01, dropout_rate=0.15,
                       seed=5)
RECOVERY_SWEEP = [
    EpisodeSpec(Difficulty.EASY, 0, implementation=implementation,
                frequency_mhz=frequency, recovery_duration=2.0,
                disturbance=disturbance, mass_scale=1.3, sensor_faults=faults)
    for implementation, frequency in (("vector", 100.0), ("scalar", 50.0),
                                      ("ideal", 100.0))
    for disturbance in (
        Disturbance(DisturbanceCategory.FORCE, DisturbanceType.STEP,
                    (1.0, 0.0, 0.0), 0.08, start_time=0.4),
        Disturbance(DisturbanceCategory.COMBINED, DisturbanceType.IMPULSE,
                    (0.0, 1.0, 1.0), 0.1, start_time=0.4),
        DrydenGust(magnitude=0.08, seed=4, start_time=0.4, duration=1.0),
        Disturbance(DisturbanceCategory.TORQUE, DisturbanceType.STEP,
                    (1.0, 0.0, 0.0), 0.02, start_time=0.4))
    for faults in (None, _FAULTS)
]

# The pinned campaigns, each run in-process (one chunk).  Low clocks on the
# hard scenario crash mid-flight beside episodes that finish.
HIL_ROWS = os.path.join(os.path.dirname(__file__), "fixtures",
                        "hil_rows.json")
GOLDEN_CAMPAIGNS = {
    "mixed-batched": lambda: run_campaign(MIXED),
    "mixed-lease-3": lambda: run_campaign(MIXED, lease_size=3),
    "mixed-unbatched": lambda: run_campaign(MIXED, batching=False),
    "recovery-sweep": lambda: run_campaign(RECOVERY_SWEEP),
    "ideal": lambda: run_campaign(CampaignSpec(
        difficulties="easy", seeds=(0,), implementations="ideal")),
    "crashes": lambda: run_campaign(CampaignSpec(
        difficulties="hard", seeds=(0,), implementations=("scalar", "vector"),
        frequencies_mhz=(10.0, 100.0))),
}


def golden_rows(outcome):
    """One JSON line per episode result of a campaign."""
    return [json.dumps(result_to_dict(result)) for result in outcome.results]


@pytest.fixture(scope="module")
def campaign():
    """Runs a pinned campaign once per module; the equivalence tests and
    the golden rows share its outcome."""
    outcomes = {}

    def run(name):
        if name not in outcomes:
            outcomes[name] = GOLDEN_CAMPAIGNS[name]()
        return outcomes[name]
    return run


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
    def test_unbatched_campaign_bit_for_bit(self, mixed_reference, campaign):
        outcome = campaign("mixed-unbatched")
        assert len(outcome.results) == len(mixed_reference)
        for reference, result in zip(mixed_reference, outcome.results):
            assert_discrete_exact(reference, result)
            # Scalar-path scheduling is the *same* solver code path as
            # run_scenario, so every float matches exactly.
            assert result.final_distance == reference.final_distance
            assert result.actuation_power_w == reference.actuation_power_w
            assert result.soc_power_w == reference.soc_power_w

    def test_batched_campaign_matches_sequential(self, mixed_reference,
                                                 campaign):
        outcome = campaign("mixed-batched")
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

    def test_narrow_chunks_match_sequential(self, mixed_reference, campaign):
        """Leases of three episodes bound every batched solve to the
        chunk's width and leave singleton groups on the scalar path; the
        outcomes still match the sequential reference."""
        outcome = campaign("mixed-lease-3")
        assert outcome.stats.max_batch_width <= 3
        assert outcome.stats.batched_solves and outcome.stats.scalar_solves
        for reference, result in zip(mixed_reference, outcome.results):
            assert_discrete_exact(reference, result)
            assert result.final_distance == pytest.approx(
                reference.final_distance, rel=1e-6, abs=1e-9)

    def test_group_as_wide_as_the_horizon(self):
        """A batch group of exactly ``horizon`` episodes gets each
        episode's own goal, not one shared trajectory of their goals."""
        horizon = EpisodeFactory().build(EpisodeSpec(Difficulty.EASY, 0),
                                         0).problem.horizon
        spec = CampaignSpec(difficulties="easy", seeds=tuple(range(horizon)))
        outcome = run_campaign(spec)
        assert outcome.stats.max_batch_width == horizon
        for reference, result in zip(sequential_reference(spec.expand()),
                                     outcome.results):
            assert_discrete_exact(reference, result)

    def test_repeated_runs_bitwise_identical(self, campaign):
        first = campaign("mixed-batched")
        second = run_campaign(MIXED)
        for a, b in zip(first.results, second.results):
            assert a.final_distance == b.final_distance
            assert a.actuation_power_w == b.actuation_power_w
            assert a.solve_iterations == b.solve_iterations


class TestGoldenRows:
    """The equivalence tests above check batched campaigns to a relative
    1e-6 only; these rows pin every bit of every result field."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(HIL_ROWS) as handle:
            payload = json.load(handle)
        assert sorted(payload) == sorted(GOLDEN_CAMPAIGNS)
        return payload

    @pytest.mark.parametrize("name", sorted(GOLDEN_CAMPAIGNS))
    def test_rows_match_golden(self, golden, campaign, name):
        expected = [json.dumps(row) for row in golden[name]]
        assert golden_rows(campaign(name)) == expected


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

    def test_bad_physics_step_leaks_no_pooled_solver(self):
        """The plant rejects a non-positive physics step before any batch
        group draws a solver from the pool, so every solver comes back."""
        factory = EpisodeFactory()
        episodes = [factory.build(EpisodeSpec(Difficulty.EASY, seed,
                                              physics_dt=dt), seed)
                    for seed, dt in ((0, 0.002), (1, 0.0))]
        pool = SolverPool()
        with pytest.raises(ValueError, match="dt must be positive"):
            FleetScheduler(episodes, pool=pool).run()
        assert pool.acquires == pool.idle_count

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

    def test_warm_starts_never_leave_their_slot(self, monkeypatch):
        """Each episode keeps one solver slot for its whole run, so no
        slot state is copied in or out over 3,320 batched solves."""
        copies = []
        for name in ("import_slot", "export_slot"):
            original = getattr(BatchTinyMPCSolver, name)

            def counted(self, *args, _original=original, **kwargs):
                copies.append(args[0])
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(BatchTinyMPCSolver, name, counted)
        outcome = run_campaign(CampaignSpec(
            difficulties=("easy", "medium"), seeds=(0, 1),
            frequencies_mhz=(100.0, 250.0)))
        assert outcome.stats.batched_solves == 3320
        assert copies == []

    @needs_compiled_plant
    def test_compiled_and_scalar_plant_paths_agree(self, monkeypatch):
        """One wide group mixing waypoint and recovery episodes and two
        physics steps flies the compiled plant; forcing the per-column
        scalar fallback must reproduce every result field exactly."""
        specs = [EpisodeSpec(difficulty, seed, frequency_mhz=frequency,
                             physics_dt=dt)
                 for difficulty in (Difficulty.EASY, Difficulty.MEDIUM)
                 for seed in (0, 1, 2) for frequency in (100.0, 250.0)
                 for dt in (0.002,)] + [
            dataclasses.replace(spec, physics_dt=0.001, recovery_duration=1.5)
            for spec in RECOVERY_SWEEP[:8]]

        def rows():
            return [json.dumps(result_to_dict(result))
                    for result in run_campaign(specs).results]
        compiled = rows()
        monkeypatch.setattr(quadrotor, "_bind", lambda plant: None)
        assert rows() == compiled

    def test_stats_accounting(self):
        outcome = run_campaign(CampaignSpec(difficulties="easy", seeds=(0, 1)))
        stats = outcome.stats
        assert stats.episodes == 2
        assert stats.solves == stats.batched_solves + stats.scalar_solves
        assert 0 < stats.mean_batch_width <= stats.max_batch_width
        row = stats.as_row()
        assert row["episodes"] == 2 and row["dispatches"] == stats.dispatches

    def test_stats_summarize_dispatch_widths(self):
        """Two chunks' stats, merged, give the mean and maximum of every
        dispatch width they accounted, as a per-dispatch list would."""
        chunks = [[(4, True), (1, False), (4, True)],
                  [(8, True), (1, False), (2, True), (3, True)]]
        merged = SchedulerStats()
        for dispatches in chunks:
            stats = SchedulerStats()
            for width, batched in dispatches:
                stats.add_dispatch(width, batched)
            merged.merge(stats)
        widths = [width for dispatches in chunks for width, _ in dispatches]
        assert merged.dispatches == len(widths)
        assert merged.solves == sum(widths)
        assert merged.scalar_solves == 2
        assert merged.batched_solves == sum(widths) - 2
        assert merged.max_batch_width == max(widths)
        assert merged.mean_batch_width == float(np.mean(widths))
        assert SchedulerStats().mean_batch_width == 0.0


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


# Waypoint episodes that finish beside ones that crash (hard scenario, low
# clock), flown by a process without a C compiler.
_FALLBACK_CAMPAIGN = dict(difficulties=("easy", "hard"), seeds=(0,),
                          implementations=("scalar", "vector"),
                          frequencies_mhz=(10.0, 100.0))

_NO_COMPILER_PROBE = r"""
import json, sys
sys.path.insert(0, {src!r})
from repro.drone import QuadrotorBatch, all_variants, compiled_plant
from repro.fleet import CampaignSpec, run_campaign
from repro.fleet.durable import result_to_dict

plant = QuadrotorBatch([all_variants()["CrazyFlie"]], [0.002])
assert plant._binding is None, "the plant bound a library"
assert "no C compiler" in compiled_plant.failure(), compiled_plant.failure()
for result in run_campaign(CampaignSpec(**{campaign!r})).results:
    print(json.dumps(result_to_dict(result)))
"""


class TestPlantWithoutCompiler:
    @needs_compiled_plant
    def test_campaign_without_a_compiler_flies_the_fallback(self, tmp_path):
        """A process whose ``REPRO_KERNEL_CC`` names no compiler and whose
        kernel cache is empty flies the scalar fallback without raising,
        and its rows equal the compiled plant's."""
        cache = tmp_path / "cache"
        cache.mkdir()
        env = dict(os.environ)
        env.update(REPRO_KERNEL_CC="no-such-compiler",
                   REPRO_KERNEL_CACHE=str(cache))
        env.pop("PYTHONPATH", None)
        env.pop("REPRO_KERNEL_BACKEND", None)
        script = _NO_COMPILER_PROBE.format(src=os.path.join(REPO_ROOT, "src"),
                                           campaign=_FALLBACK_CAMPAIGN)
        probe = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=300)
        assert probe.returncode == 0, probe.stderr
        with use_compiled_kernels("numpy"):
            outcome = run_campaign(CampaignSpec(**_FALLBACK_CAMPAIGN))
        assert any(result.crashed for result in outcome.results)
        assert probe.stdout.splitlines() == golden_rows(outcome)
        assert list(cache.iterdir()) == []


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


if __name__ == "__main__":
    # Re-record the pinned rows (one row per line) after an intentional
    # change to episode numerics:
    #     PYTHONPATH=src python tests/fleet/test_scheduler.py
    with open(HIL_ROWS, "w") as handle:
        handle.write("{\n" + ",\n".join(
            "{}: [\n{}\n]".format(json.dumps(name),
                                   ",\n".join(golden_rows(run())))
            for name, run in GOLDEN_CAMPAIGNS.items()) + "\n}\n")
