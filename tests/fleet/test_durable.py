"""Unit tests for the durability layer: journal, run dirs, serialization."""

import json
import os

import numpy as np
import pytest

from repro.drone import Difficulty, generate_scenario
from repro.drone.disturbance import RecoveryResult, standard_disturbance_suite
from repro.fleet import CampaignSpec, EpisodeSpec
from repro.fleet.chaos import corrupt_journal
from repro.fleet.durable import (
    ChunkPlan,
    EpisodeFailure,
    ExecutionPlan,
    RUN_SCHEMA_VERSION,
    RunJournal,
    journal_path,
    plan_chunks,
    prepare_run,
    replay_journal,
    result_from_dict,
    result_to_dict,
    scan_journal,
    stats_from_dict,
    stats_to_dict,
)
from repro.fleet.scheduler import SchedulerStats
from repro.hil import ScenarioResult


def _scenario_result(seed=3, positions=True):
    scenario = generate_scenario(Difficulty.MEDIUM, seed)
    return ScenarioResult(
        scenario=scenario, implementation="vector", frequency_mhz=250.0,
        success=True, crashed=False, final_distance=0.07421398765432109,
        solve_times=[1.25e-3, 3.75e-4, 9.999999999e-4],
        solve_iterations=[7, 10, 3],
        actuation_power_w=2.125, soc_power_w=0.046875,
        flight_time_s=6.5,
        positions=(np.linspace(0.0, 1.0, 12).reshape(4, 3)
                   if positions else None))


class TestResultRoundTrip:
    def test_scenario_result_exact(self):
        result = _scenario_result()
        clone = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert clone.scenario == result.scenario
        assert clone.implementation == result.implementation
        assert clone.frequency_mhz == result.frequency_mhz
        assert clone.success is result.success
        assert clone.crashed is result.crashed
        # Bit-exact floats: JSON doubles round-trip through repr.
        assert clone.final_distance == result.final_distance
        assert clone.solve_times == result.solve_times
        assert clone.solve_iterations == result.solve_iterations
        np.testing.assert_array_equal(clone.positions, result.positions)

    def test_scenario_result_without_positions(self):
        clone = result_from_dict(result_to_dict(_scenario_result(positions=False)))
        assert clone.positions is None

    def test_recovery_result_exact(self):
        wrench = standard_disturbance_suite()[0]
        result = RecoveryResult(recovered=False, time_to_recovery=None,
                                max_deviation=float("inf"),
                                disturbance=wrench)
        clone = result_from_dict(result_to_dict(result))
        assert clone.recovered is False
        assert clone.time_to_recovery is None
        assert clone.max_deviation == float("inf")
        assert result_to_dict(clone) == result_to_dict(result)

    def test_stats_round_trip(self):
        stats = SchedulerStats(episodes=8, groups=2, dispatches=40,
                               solves=160, batched_solves=150,
                               scalar_solves=10, max_batch_width=8)
        clone = stats_from_dict(stats_to_dict(stats))
        assert clone == stats


class TestJournal:
    def _fill(self, path, n=10):
        journal = RunJournal(path, fsync_every=4)
        assert journal.open() == []
        for index in range(n):
            journal.append({"t": "episode", "c": "c0000", "i": index,
                            "r": {"value": index * 0.125}})
        journal.append({"t": "commit", "c": "c0000",
                        "i": list(range(n))}, sync=True)
        journal.close()

    def test_append_and_scan(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        self._fill(path)
        records, good_bytes, torn = scan_journal(path)
        assert len(records) == 11 and not torn
        assert good_bytes == os.path.getsize(path)

    @pytest.mark.parametrize("mode", ["truncate", "flip", "garbage"])
    def test_corruption_detected_and_tail_discarded(self, tmp_path, mode):
        path = str(tmp_path / "journal.jsonl")
        self._fill(path)
        corrupt_journal(path, mode)
        records, good_bytes, torn = scan_journal(path)
        assert torn
        # Damage inside the file loses the tail records; appended garbage
        # loses only itself.
        assert len(records) < 11 if mode in ("truncate", "flip") else \
            len(records) == 11
        # Every surviving record is intact and in order.
        assert [r["i"] for r in records if r["t"] == "episode"] == \
            list(range(len([r for r in records if r["t"] == "episode"])))
        # Re-opening truncates the tail and appending works again.
        journal = RunJournal(path)
        assert len(journal.open()) == len(records)
        journal.append({"t": "commit", "c": "c0001", "i": []}, sync=True)
        journal.close()
        rescanned, _, torn_after = scan_journal(path)
        assert not torn_after
        assert len(rescanned) == len(records) + 1

    def test_replay_promotes_only_committed_chunks(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(path)
        journal.open()
        journal.append({"t": "episode", "c": "c0000", "i": 0, "r": {"v": 1}})
        journal.append({"t": "episode", "c": "c0000", "i": 1, "r": {"v": 2}})
        journal.append({"t": "commit", "c": "c0000", "i": [0, 1],
                        "s": stats_to_dict(SchedulerStats())})
        # Chunk c0001 never commits: its episode must not replay.
        journal.append({"t": "episode", "c": "c0001", "i": 2, "r": {"v": 3}})
        journal.close()
        records, _, _ = scan_journal(path)
        state = replay_journal(records)
        assert set(state.results) == {0, 1}
        assert state.committed == {"c0000": (0, 1)}
        assert state.completed_episodes == 2

    def test_replay_keeps_last_record_per_index(self, tmp_path):
        """A crash between append and commit leaves stale partial records;
        the re-run's records (appended later) win."""
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(path)
        journal.open()
        journal.append({"t": "episode", "c": "c0000", "i": 0, "r": {"v": "stale"}})
        journal.append({"t": "episode", "c": "c0000", "i": 0, "r": {"v": "fresh"}})
        journal.append({"t": "episode", "c": "c0000", "i": 1, "r": {"v": "x"}})
        journal.append({"t": "commit", "c": "c0000", "i": [0, 1]})
        journal.close()
        state = replay_journal(scan_journal(path)[0])
        assert state.results[0] == {"v": "fresh"}

    def test_quarantine_failure_record_replays(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(path)
        journal.open()
        failure = EpisodeFailure(index=4, label="easy/vector", stage="build",
                                 error_type="ChaosError", message="boom",
                                 attempts=3, chunk_id="c0001a")
        journal.append({"t": "fail", "c": "c0001a", "i": 4,
                        "f": failure.to_dict()})
        journal.append({"t": "commit", "c": "c0001a", "i": [4]})
        journal.close()
        state = replay_journal(scan_journal(path)[0])
        assert state.failures[4] == failure
        assert state.failures[4].as_row()["status"] == "quarantined"


class TestChunkPlanning:
    def test_chunks_cover_every_index_once(self):
        plan = ExecutionPlan(shards=3, lease_size=4)
        chunks = plan_chunks(29, plan)
        flat = sorted(i for chunk in chunks for i in chunk.indices)
        assert flat == list(range(29))
        assert all(len(chunk.indices) <= 4 for chunk in chunks)

    def test_chunk_ids_sort_in_plan_order(self):
        plan = ExecutionPlan(shards=2, lease_size=8)
        chunks = plan_chunks(64, plan)
        ids = [chunk.chunk_id for chunk in chunks]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_planning_is_deterministic(self):
        plan = ExecutionPlan(shards=4, lease_size=5)
        assert plan_chunks(50, plan) == plan_chunks(50, plan)

    def test_bisection_children_sort_inside_parent_slot(self):
        chunk = ChunkPlan("c0003", (3, 9, 15, 21), True)
        a, b = chunk.halves()
        assert a.indices == (3, 9) and b.indices == (15, 21)
        assert not a.batching and not b.batching
        assert "c0003" < a.chunk_id < b.chunk_id < "c0004"

    def test_plan_round_trip(self):
        plan = ExecutionPlan(shards=2, lease_size=16, batching=False)
        assert ExecutionPlan.from_dict(plan.to_dict()) == plan


class TestRunDirectory:
    def _spec(self):
        return CampaignSpec(difficulties=("easy",), seeds=(0, 1),
                            frequencies_mhz=(100.0,))

    def test_fresh_then_reattach(self, tmp_path):
        plan = ExecutionPlan(shards=2, lease_size=4)
        spec = self._spec()
        run_dir, meta, fresh = prepare_run(str(tmp_path), spec,
                                           spec.expand(), plan)
        assert fresh and os.path.exists(os.path.join(run_dir, "meta.json"))
        assert meta["spec_sha256"][:12] in run_dir
        again_dir, _, fresh_again = prepare_run(str(tmp_path), spec,
                                                spec.expand(), plan)
        assert again_dir == run_dir and not fresh_again
        # The run dir itself also works as the checkpoint_dir (--resume).
        direct_dir, _, direct_fresh = prepare_run(run_dir, spec,
                                                  spec.expand(), plan)
        assert direct_dir == run_dir and not direct_fresh

    def test_different_campaign_rejected(self, tmp_path):
        plan = ExecutionPlan(shards=1, lease_size=4)
        spec = self._spec()
        run_dir, _, _ = prepare_run(str(tmp_path), spec, spec.expand(), plan)
        other = CampaignSpec(difficulties=("hard",), seeds=(0,),
                             frequencies_mhz=(100.0,))
        with pytest.raises(ValueError, match="different campaign"):
            prepare_run(run_dir, other, other.expand(), plan)

    def test_different_plan_rejected(self, tmp_path):
        """A checkpoint recorded at lease 16 and resumed at the default of
        64 is refused; the message names each differing field, both its
        values and the option that resumes the run."""
        spec = self._spec()
        plan = ExecutionPlan(shards=2, lease_size=16)
        prepare_run(str(tmp_path), spec, spec.expand(), plan)
        changed = ExecutionPlan(shards=2, lease_size=64)
        with pytest.raises(ValueError, match="execution plan") as refusal:
            prepare_run(str(tmp_path), spec, spec.expand(), changed)
        message = str(refusal.value)
        assert "lease_size: recorded 16, requested 64" in message
        assert "lease_size=16 / --lease-size 16" in message
        assert "shards" not in message
        flags = ExecutionPlan(shards=1, lease_size=16, batching=False)
        with pytest.raises(ValueError, match="execution plan") as refusal:
            prepare_run(str(tmp_path), spec, spec.expand(), flags)
        message = str(refusal.value)
        assert "shards: recorded 2, requested 1" in message
        assert "workers=2 / --workers 2" in message
        assert "batching=True / without --no-batching" in message
        assert "lease_size" not in message
        _, _, fresh = prepare_run(str(tmp_path), spec, spec.expand(), plan)
        assert not fresh

    # v1 run directories journaled per-chunk aggregates and recorded
    # keep_results/sample_cap in their plan; v2 ones recorded the deleted
    # batch-width cap (its key is spelled in two parts so that a search
    # for the option finds no live use).
    @pytest.mark.parametrize("version", [1, 2, RUN_SCHEMA_VERSION + 1])
    def test_stale_run_schema_rejected(self, tmp_path, version):
        spec = self._spec()
        plan = ExecutionPlan(shards=1, lease_size=4)
        run_dir, _, _ = prepare_run(str(tmp_path), spec, spec.expand(), plan)
        meta_path = os.path.join(run_dir, "meta.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["run_schema_version"] = version
        if version == 1:
            meta["plan"].update(keep_results=True, sample_cap=4096)
        if version == 2:
            meta["plan"]["max_" "batch"] = None
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        with pytest.raises(ValueError, match="run schema"):
            prepare_run(str(tmp_path), spec, spec.expand(), plan)

    def test_journal_path_inside_run_dir(self, tmp_path):
        spec = self._spec()
        run_dir, _, _ = prepare_run(
            str(tmp_path), spec, spec.expand(),
            ExecutionPlan(shards=1, lease_size=4))
        assert os.path.dirname(journal_path(run_dir)) == run_dir


class TestSpecSchemaVersion:
    def test_to_dict_carries_version(self):
        assert CampaignSpec().to_dict()["schema_version"] == 1
        assert EpisodeSpec(difficulty=Difficulty.EASY,
                           seed=0).to_dict()["schema_version"] == 1

    def test_missing_version_means_first_version(self):
        # Pre-versioning payloads (e.g. checked-in fuzz fixtures) load.
        payload = CampaignSpec().to_dict()
        payload.pop("schema_version")
        assert CampaignSpec.from_dict(payload) == CampaignSpec()

    def test_mismatched_version_fails_loudly(self):
        payload = CampaignSpec().to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema v99"):
            CampaignSpec.from_dict(payload)
        episode = EpisodeSpec(difficulty=Difficulty.EASY, seed=0).to_dict()
        episode["schema_version"] = 0
        with pytest.raises(ValueError, match="cannot be resumed"):
            EpisodeSpec.from_dict(episode)
