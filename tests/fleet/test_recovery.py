"""Fleet/scalar equivalence for disturbance-recovery campaigns (Fig. 17).

The contract mirrors ``tests/fleet/test_scheduler.py`` for the recovery
episode kind, now that disturbance episodes run through the shared
:class:`~repro.hil.episode.EpisodeRunner` state machine:

* with batching *off*, a recovery campaign reproduces per-episode
  :meth:`HILLoop.run_disturbance` results **bit-for-bit**;
* with batching *on*, discrete outcomes (recovered, crash-driven
  ``time_to_recovery=None``) are exactly equal and float metrics (TTR, max
  deviation) agree to GEMM round-off;
* the streaming aggregator reports per-category recovery statistics,
  including the maximum recoverable magnitude on a magnitude ladder.
"""

import pytest

from repro.drone import (Difficulty, Disturbance, DisturbanceCategory,
                         DisturbanceType)
from repro.fleet import CampaignSpec, EpisodeSpec, run_campaign
from repro.hil import HILConfig, HILLoop
from repro.hil.episode import EpisodeBatch

# A reduced but real slice of the Fig. 17 suite: two implementations times
# (force x 2 kinds x 3 axes + combined x 2 kinds) = 16 recovery episodes.
RECOVERY = CampaignSpec(
    name="recovery-mixed", episode_kind="recovery",
    implementations=("scalar", "vector"),
    disturbance_categories=("force", "combined"),
    recovery_duration=2.0)


def serial_reference(episodes):
    """Per-episode run_disturbance results — the ground truth."""
    loops = {}
    results = []
    for spec in episodes:
        key = (spec.implementation, spec.frequency_mhz, spec.variant,
               spec.control_rate_hz, spec.max_admm_iterations)
        if key not in loops:
            loops[key] = HILLoop(spec.hil_config())
        results.append(loops[key].run_disturbance(
            spec.disturbance, spec.hold_position, spec.recovery_duration))
    return results


@pytest.fixture(scope="module")
def recovery_reference():
    return serial_reference(RECOVERY.expand())


@pytest.fixture
def crashes(monkeypatch):
    """Campaign index -> crashed, for every episode finished in-process
    (a :class:`RecoveryResult` does not carry the crash itself)."""
    record = {}
    finish = EpisodeBatch._finish

    def recording_finish(batch, column, crashed):
        record[batch.runners[column].episode_id] = crashed
        finish(batch, column, crashed)

    monkeypatch.setattr(EpisodeBatch, "_finish", recording_finish)
    return record


def assert_discrete_exact(reference, result):
    assert result.recovered == reference.recovered
    assert ((result.time_to_recovery is None)
            == (reference.time_to_recovery is None))
    assert result.disturbance == reference.disturbance


class TestRecoveryFleetEquivalence:
    def test_expansion_matches_paper_suite(self):
        full = CampaignSpec(episode_kind="recovery")
        assert len(full.disturbances()) == 14      # the paper's Fig. 17 suite
        assert RECOVERY.size == len(RECOVERY.expand()) == 16

    def test_unbatched_campaign_bit_for_bit(self, recovery_reference):
        outcome = run_campaign(RECOVERY, batching=False)
        assert len(outcome.results) == len(recovery_reference)
        for reference, result in zip(recovery_reference, outcome.results):
            assert_discrete_exact(reference, result)
            # Scalar-path scheduling is the *same* solver code path as
            # run_disturbance, so every float matches exactly.
            assert result.time_to_recovery == reference.time_to_recovery
            assert result.max_deviation == reference.max_deviation

    def test_batched_campaign_matches_serial(self, recovery_reference):
        outcome = run_campaign(RECOVERY)
        assert outcome.stats.batched_solves > 0
        # One MPC problem and one settings tuple: the whole suite, both
        # implementations included, packs into a single batch group.
        assert outcome.stats.groups == 1
        for reference, result in zip(recovery_reference, outcome.results):
            assert_discrete_exact(reference, result)
            if reference.time_to_recovery is not None:
                assert result.time_to_recovery == pytest.approx(
                    reference.time_to_recovery, abs=1e-9)
            assert result.max_deviation == pytest.approx(
                reference.max_deviation, rel=1e-6)

    def test_explicit_disturbance_list_matches_serial(self):
        """Disturbances outside the suite's standard directions run as an
        explicit episode list, batched, and still match run_disturbance."""
        episodes = [
            EpisodeSpec(Difficulty.EASY, 0, recovery_duration=2.5,
                        disturbance=Disturbance(
                            DisturbanceCategory(category),
                            DisturbanceType(kind), direction, magnitude))
            for category, kind, direction, magnitude in [
                ("torque", "impulse", (0.0, 0.0, 1.0), 0.002),
                ("combined", "step", (1.0, 1.0, 0.5), 0.08)]]
        reference = serial_reference(episodes)
        outcome = run_campaign(episodes)
        assert outcome.stats.batched_solves > 0
        assert len(outcome.results) == len(reference)
        for expected, result in zip(reference, outcome.results):
            assert_discrete_exact(expected, result)
            if expected.time_to_recovery is not None:
                assert result.time_to_recovery == pytest.approx(
                    expected.time_to_recovery, abs=1e-9)
            assert result.max_deviation == pytest.approx(
                expected.max_deviation, rel=1e-6)

    def test_repeated_runs_bitwise_identical(self):
        first = run_campaign(RECOVERY)
        second = run_campaign(RECOVERY)
        for a, b in zip(first.results, second.results):
            assert a.recovered == b.recovered
            assert a.time_to_recovery == b.time_to_recovery
            assert a.max_deviation == b.max_deviation


class TestRecoveryAggregation:
    def test_recovery_rows_per_category_and_kind(self):
        outcome = run_campaign(RECOVERY)
        rows = outcome.rows()
        assert len(rows) == 8        # 2 impls x 2 categories x 2 kinds
        assert {row["disturbance_category"] for row in rows} == {
            "force", "combined"}
        assert {row["implementation"] for row in rows} == {"scalar", "vector"}
        for row in rows:
            assert 0.0 <= row["recovery_rate"] <= 1.0
            assert row["episodes"] in (1, 3)     # combined has one direction
        overall = outcome.overall()
        assert overall["recovery_episodes"] == 16
        assert overall["episodes"] == 16

    def test_magnitude_ladder_reports_max_recoverable(self):
        """An absurd ladder rung must fail and show up in the cell extremes."""
        ladder = CampaignSpec(
            name="ladder", episode_kind="recovery",
            implementations=("vector",),
            disturbance_categories=("torque",),
            disturbance_kinds=("step",),
            disturbance_scales=(1.0, 500.0),
            recovery_duration=2.0)
        outcome = run_campaign(ladder)
        (row,) = outcome.rows()
        assert row["episodes"] == 6              # 3 axes x 2 rungs
        assert 0.0 < row["recovery_rate"] < 1.0
        assert row["max_recovered_magnitude"] == pytest.approx(0.002)
        assert row["min_unrecovered_magnitude"] == pytest.approx(1.0)

    def test_sharded_recovery_campaign_matches_in_process(self):
        small = CampaignSpec(
            name="sharded", episode_kind="recovery",
            implementations=("vector",),
            disturbance_categories=("combined",),
            recovery_duration=2.0)
        in_process = run_campaign(small, workers=1)
        sharded = run_campaign(small, workers=2)
        for a, b in zip(in_process.results, sharded.results):
            assert a.recovered == b.recovered
            assert b.max_deviation == pytest.approx(a.max_deviation, rel=1e-6)
        assert sharded.overall()["recovery_episodes"] == 2


    def test_checkpointed_recovery_rows_match_inline(self, tmp_path):
        """Journaled recovery results replay into the same rows as an
        in-process run of the same plan."""
        inline = run_campaign(RECOVERY, lease_size=8)
        checkpointed = run_campaign(RECOVERY, lease_size=8,
                                    checkpoint_dir=str(tmp_path))
        assert checkpointed.report.fresh_chunks == 2
        assert checkpointed.rows() == inline.rows()
        for a, b in zip(inline.results, checkpointed.results):
            assert a.recovered == b.recovered
            assert a.time_to_recovery == b.time_to_recovery
            assert a.max_deviation == b.max_deviation
        assert checkpointed.overall()["recovery_episodes"] == 16

    def test_batched_outcomes_do_not_depend_on_lease_size(self, crashes):
        """A lease fixes its chunk's batch widths, which may move floats by
        round-off but no discrete outcome: every episode recovers, loses
        its time to recovery and crashes as in a one-chunk run."""
        one_chunk = run_campaign(RECOVERY)
        one_chunk_crashes = dict(crashes)
        assert sorted(one_chunk_crashes) == list(range(16))
        for lease_size in (4, 8):
            crashes.clear()
            chunked = run_campaign(RECOVERY, lease_size=lease_size)
            assert chunked.stats.max_batch_width <= lease_size
            for index, (a, b) in enumerate(zip(one_chunk.results,
                                               chunked.results)):
                assert b.recovered == a.recovered
                assert ((b.time_to_recovery is None)
                        == (a.time_to_recovery is None))
                assert crashes[index] == one_chunk_crashes[index]


class TestRecoverySpecValidation:
    def test_round_trip_dict(self):
        clone = CampaignSpec.from_dict(RECOVERY.to_dict())
        assert clone == RECOVERY
        assert clone.expand() == RECOVERY.expand()

    def test_unknown_episode_kind_rejected(self):
        with pytest.raises(ValueError, match="episode_kind"):
            CampaignSpec(episode_kind="hover")

    def test_unknown_disturbance_axes_rejected(self):
        with pytest.raises(ValueError, match="category"):
            CampaignSpec(episode_kind="recovery",
                         disturbance_categories=("wind",))
        with pytest.raises(ValueError, match="kind"):
            CampaignSpec(episode_kind="recovery",
                         disturbance_kinds=("ramp",))
        with pytest.raises(ValueError, match="scales"):
            CampaignSpec(episode_kind="recovery",
                         disturbance_scales=(0.0,))

    def test_recovery_requires_single_difficulty(self):
        with pytest.raises(ValueError, match="difficulty"):
            CampaignSpec(episode_kind="recovery",
                         difficulties=("easy", "hard"))

    def test_waypoint_campaign_ignores_disturbance_axes(self):
        spec = CampaignSpec(difficulties=("easy",), seeds=(0, 1))
        assert spec.size == 2
        assert spec.disturbances() == []
        assert all(e.disturbance is None for e in spec.expand())
