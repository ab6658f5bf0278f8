"""Tests for campaign sharding, streaming aggregation, and the CLI."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.drone import Difficulty, generate_scenario
from repro.fleet import (
    CampaignSpec,
    FleetAggregator,
    ReservoirSamples,
    RetryPolicy,
    run_campaign,
    shard_indices,
)
from repro.fleet.aggregate import SAMPLE_CAP
from repro.fleet.chaos import ChaosError
from repro.fleet.durable import (DEFAULT_LEASE_SIZE, journal_path,
                                  result_to_dict, scan_journal)
from repro.hil import ScenarioResult

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))


class TestSharding:
    def test_partition_covers_every_index_once(self):
        for count, shards in [(10, 3), (4, 4), (7, 1), (3, 8)]:
            parts = shard_indices(count, shards)
            flat = sorted(i for part in parts for i in part)
            assert flat == list(range(count))
            assert len(parts) <= shards
            assert all(parts)

    def test_round_robin_interleaving(self):
        assert shard_indices(7, 2) == [[0, 2, 4, 6], [1, 3, 5]]

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_indices(4, 0)

    def test_sharded_campaign_matches_in_process(self):
        spec = CampaignSpec(difficulties=("easy",), seeds=(0, 1, 2, 3),
                            frequencies_mhz=(100.0, 250.0))
        in_process = run_campaign(spec, workers=1)
        sharded = run_campaign(spec, workers=2)
        assert len(sharded.results) == len(in_process.results) == 8
        assert sharded.workers == 2
        for a, b in zip(in_process.results, sharded.results):
            # Shards change batch widths, so floats carry different GEMM
            # round-off; discrete outcomes must agree exactly.
            assert a.success == b.success
            assert a.crashed == b.crashed
            assert a.solve_iterations == b.solve_iterations
            assert a.flight_time_s == b.flight_time_s
            assert b.final_distance == pytest.approx(a.final_distance,
                                                     rel=1e-6, abs=1e-9)
        assert sharded.stats.episodes == 8

    def test_sharded_campaign_is_reproducible(self):
        spec = CampaignSpec(difficulties=("easy",), seeds=(0, 1),
                            frequencies_mhz=(100.0, 250.0))
        first = run_campaign(spec, workers=2)
        second = run_campaign(spec, workers=2)
        for a, b in zip(first.results, second.results):
            assert a.final_distance == b.final_distance
            assert a.solve_iterations == b.solve_iterations

    def test_empty_campaign(self):
        outcome = run_campaign([])
        assert outcome.results == [] and outcome.rows() == []


class TestOneExecutionPath:
    """Every run is the same chunk plan through the same chunk function, so
    for a fixed plan the output does not depend on ``checkpoint_dir``."""

    SPEC = CampaignSpec(name="one-path", difficulties=("easy",),
                        seeds=(0, 1, 2, 3), frequencies_mhz=(100.0, 250.0))

    # One program over the catalog: 51 model-fidelity design points, cheap
    # enough to run twice on two workers.
    DESIGN = CampaignSpec(name="one-path-dse", episode_kind="design_point",
                          fidelities=("model",), lmuls=(1, 2, 4, 8),
                          sync_granularities=(None, 1, 2, 4, 8, 16, 32))

    @staticmethod
    def _bytes(outcome):
        return (json.dumps(outcome.rows(), sort_keys=True),
                json.dumps([result_to_dict(r) for r in outcome.results],
                           sort_keys=True))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoint_dir_does_not_change_output(self, tmp_path, workers):
        in_memory = run_campaign(self.SPEC, workers=workers, lease_size=4)
        checkpointed = run_campaign(self.SPEC, workers=workers, lease_size=4,
                                    checkpoint_dir=str(tmp_path))
        assert in_memory.run_dir is None and checkpointed.run_dir is not None
        assert (in_memory.report is None) == (workers == 1)
        assert checkpointed.report.fresh_chunks == 2
        assert self._bytes(in_memory) == self._bytes(checkpointed)

    def test_default_lease_runs_each_shard_as_one_chunk(self, tmp_path):
        """With a checkpoint and ``lease_size=None`` a shard of at most
        ``DEFAULT_LEASE_SIZE`` episodes is one chunk, as without one."""
        assert self.DESIGN.size == 51          # shards of 26 and 25
        checkpointed = run_campaign(self.DESIGN, workers=2,
                                    checkpoint_dir=str(tmp_path))
        assert checkpointed.report.fresh_chunks == 2
        with open(os.path.join(checkpointed.run_dir, "meta.json")) as handle:
            plan = json.load(handle)["plan"]
        assert plan["lease_size"] == DEFAULT_LEASE_SIZE
        in_memory = run_campaign(self.DESIGN, workers=2)
        assert self._bytes(in_memory) == self._bytes(checkpointed)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("option, value", [
        ("lease_size", 0), ("lease_size", -1)])
    def test_lease_size_below_one_rejected_before_run_dir(
            self, tmp_path, workers, option, value):
        with pytest.raises(ValueError, match=option):
            run_campaign(self.SPEC, workers=workers,
                         checkpoint_dir=str(tmp_path), **{option: value})
        assert os.listdir(str(tmp_path)) == []
        with pytest.raises(ValueError, match=option):
            run_campaign(self.SPEC, workers=workers, **{option: value})

    @pytest.fixture(scope="class")
    def scalar_reference(self):
        return run_campaign(self.SPEC, batching=False)

    @pytest.mark.parametrize("workers, lease_size", [(1, 1), (2, 3)])
    def test_scalar_output_does_not_depend_on_chunking(
            self, scalar_reference, workers, lease_size):
        """Results are aggregated once, in campaign order, so on the scalar
        path (bit-for-bit independent of grouping) neither the shard count
        nor the chunk size reaches the rows."""
        chunked = run_campaign(self.SPEC, workers=workers, batching=False,
                               lease_size=lease_size)
        assert self._bytes(chunked) == self._bytes(scalar_reference)
        rows = chunked.rows()
        assert sum(row["episodes"] for row in rows) == 8
        assert all(row["success_rate"] == 1.0 for row in rows)
        assert chunked.overall()["episodes"] == 8

    def test_lease_bounds_batch_width_on_workers(self, scalar_reference):
        """The lease is the only bound on a batched solve's width: shards
        of four cut into leases of three fly a 3-wide batch and a
        singleton on each worker, with the scalar path's outcomes."""
        chunked = run_campaign(self.SPEC, workers=2, lease_size=3)
        stats = chunked.stats
        assert stats.episodes == 8
        assert stats.max_batch_width == 3
        assert stats.batched_solves and stats.scalar_solves
        for reference, result in zip(scalar_reference.results,
                                     chunked.results):
            assert result.success == reference.success
            assert result.solve_iterations == reference.solve_iterations
            assert result.final_distance == pytest.approx(
                reference.final_distance, rel=1e-6, abs=1e-9)

    def test_empty_supervised_campaign_spawns_no_workers(self):
        outcome = run_campaign([], workers=2)
        assert outcome.results == [] and outcome.rows() == []
        assert outcome.report.spawned_workers == 0


class TestReservoirSamples:
    def test_exact_below_cap(self):
        samples = ReservoirSamples(cap=64)
        values = list(np.linspace(0.0, 1.0, 50))
        samples.extend(values)
        assert samples.values == values
        assert samples.percentile(50.0) == pytest.approx(np.percentile(values, 50))

    def test_bounded_and_deterministic_above_cap(self):
        values = np.random.default_rng(0).uniform(size=5000)
        a = ReservoirSamples(cap=256)
        b = ReservoirSamples(cap=256)
        for value in values:
            a.add(value)
            b.add(value)
        assert len(a.values) <= 256
        assert a.values == b.values
        assert a.count == 5000
        # Decimated percentiles stay close to the exact ones.
        assert a.percentile(50.0) == pytest.approx(
            np.percentile(values, 50.0), abs=0.1)

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            ReservoirSamples(cap=1)

    def test_cells_keep_sample_cap_samples(self):
        assert ReservoirSamples().cap == SAMPLE_CAP
        aggregator = FleetAggregator()
        key = ("easy", "vector", 100.0, "CrazyFlie", 100.0, 10)
        solve_times = [1e-3] * (SAMPLE_CAP // 2 + 1)
        for _ in range(3):
            aggregator.add(_result(solve_times=solve_times), key=key)
        samples = aggregator.cells[key].solve_times
        assert samples.cap == SAMPLE_CAP
        assert samples.count == 3 * len(solve_times)
        assert samples.stride == 2
        assert len(samples.values) <= SAMPLE_CAP


def _result(difficulty=Difficulty.EASY, success=True, distance=0.1,
            power=2.0, solve_times=(1e-3, 2e-3)):
    return ScenarioResult(
        scenario=generate_scenario(difficulty, 0),
        implementation="vector", frequency_mhz=100.0, success=success,
        crashed=not success, final_distance=distance,
        solve_times=list(solve_times), solve_iterations=[5] * len(solve_times),
        actuation_power_w=power, soc_power_w=0.05, flight_time_s=4.0)


class TestFleetAggregator:
    def test_streaming_stats_match_direct_computation(self):
        aggregator = FleetAggregator()
        distances = [0.05, 0.1, 0.4]
        for distance, success in zip(distances, (True, True, False)):
            aggregator.add(_result(distance=distance, success=success),
                           key=("easy", "vector", 100.0, "CrazyFlie", 100.0, 10))
        rows = aggregator.rows()
        assert len(rows) == 1
        row = rows[0]
        assert row["episodes"] == 3
        assert row["success_rate"] == pytest.approx(2 / 3)
        assert row["crash_rate"] == pytest.approx(1 / 3)
        assert row["tracking_error_p50_m"] == pytest.approx(
            np.percentile(distances, 50))
        assert row["solve_time_p50_ms"] == pytest.approx(1.5)
        assert row["mean_iterations"] == pytest.approx(5.0)

    def test_cells_keyed_by_configuration(self):
        aggregator = FleetAggregator()
        aggregator.add(_result(), key=("easy", "vector", 100.0, "CrazyFlie", 100.0, 10))
        aggregator.add(_result(), key=("easy", "vector", 250.0, "CrazyFlie", 100.0, 10))
        assert len(aggregator.cells) == 2
        assert aggregator.episodes == 2
        overall = aggregator.overall()
        assert overall["cells"] == 2 and overall["episodes"] == 2

    def test_key_decides_the_cell(self):
        """The caller's key (the spec's ``cell_key()``) places a result;
        nothing is derived from the result itself."""
        aggregator = FleetAggregator()
        with pytest.raises(TypeError):
            aggregator.add(_result())
        aggregator.add(_result(difficulty=Difficulty.EASY),
                       key=("hard", "scalar", 50.0, "CrazyFlie", 100.0, 10))
        row = aggregator.rows()[0]
        assert (row["difficulty"], row["implementation"]) == ("hard", "scalar")
        assert row["frequency_mhz"] == 50.0

    def test_rows_sorted_and_stable(self):
        aggregator = FleetAggregator()
        aggregator.add(_result(), key=("hard", "vector", 100.0, "CrazyFlie", 100.0, 10))
        aggregator.add(_result(), key=("easy", "vector", 100.0, "CrazyFlie", 100.0, 10))
        assert [row["difficulty"] for row in aggregator.rows()] == ["easy", "hard"]


class TestExperimentDriver:
    def test_fleet_campaign_rows(self):
        from repro.experiments import run_experiment

        rows = run_experiment("fleet_campaign", difficulties=("easy",),
                              seeds=2, frequencies_mhz=(100.0,))
        assert len(rows) == 2          # one cell + the overall summary
        assert rows[0]["episodes"] == 2
        assert rows[-1]["difficulty"] == "overall"


class TestQuarantine:
    """Worker-failure paths: a failing episode must cost one structured
    row, not the campaign — checkpointed or not, every run with worker
    processes is supervised."""

    SPEC = CampaignSpec(name="quarantine", difficulties=("easy",),
                        seeds=(0, 1, 2, 3), frequencies_mhz=(100.0, 250.0))

    def _poisoned(self, checkpoint_dir, monkeypatch, episode=2):
        monkeypatch.setenv("REPRO_CHAOS",
                           json.dumps({"episode": episode, "mode": "raise"}))
        return run_campaign(self.SPEC, workers=2, checkpoint_dir=checkpoint_dir,
                            lease_size=4,
                            retry_policy=RetryPolicy(max_attempts=2,
                                                     backoff_base=0.02))

    def test_uncheckpointed_worker_run_quarantines(self, monkeypatch):
        outcome = self._poisoned(None, monkeypatch)
        assert outcome.run_dir is None
        assert [f.index for f in outcome.failures] == [2]
        assert outcome.report.quarantined == 1
        assert [row["index"] for row in outcome.rows()
                if row.get("status") == "quarantined"] == [2]

    def test_inline_run_propagates_episode_errors(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS",
                           json.dumps({"episode": 2, "mode": "raise"}))
        with pytest.raises(ChaosError):
            run_campaign(self.SPEC, workers=1)

    def test_failure_row_emitted_and_siblings_survive(self, tmp_path,
                                                      monkeypatch):
        outcome = self._poisoned(str(tmp_path / "run"), monkeypatch)
        assert [f.index for f in outcome.failures] == [2]
        assert outcome.results[2] is None
        completed = [r for i, r in enumerate(outcome.results) if i != 2]
        assert all(r is not None for r in completed)
        rows = outcome.rows()
        quarantined = [row for row in rows
                       if row.get("status") == "quarantined"]
        assert len(quarantined) == 1
        assert quarantined[0]["index"] == 2
        assert quarantined[0]["label"] == self.SPEC.expand()[2].label()
        assert quarantined[0]["error_type"] == "ChaosError"
        assert quarantined[0]["attempts"] == 2
        # Aggregate rows count only the episodes that actually completed.
        aggregate_rows = [row for row in rows if "status" not in row]
        assert sum(row["episodes"] for row in aggregate_rows) == 7
        assert outcome.overall()["quarantined_episodes"] == 1

    @pytest.mark.parametrize("field, value", [
        ("max_attempts", 0), ("backoff_base", -0.5),
        ("episode_timeout", 0.0), ("episode_timeout", -1.0),
        ("respawn_budget", -1)])
    def test_retry_policy_rejects_out_of_range_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: value})

    def test_journal_holds_only_episode_fail_commit_records(self, tmp_path,
                                                            monkeypatch):
        outcome = self._poisoned(str(tmp_path / "run"), monkeypatch)
        records, _, torn = scan_journal(journal_path(outcome.run_dir))
        assert not torn
        assert {record["t"] for record in records} == {
            "episode", "fail", "commit"}
        assert [record["i"] for record in records
                if record["t"] == "fail"] == [2]
        assert sorted(record["i"] for record in records
                      if record["t"] == "episode") == [0, 1, 3, 4, 5, 6, 7]

    def test_quarantine_output_is_deterministic(self, tmp_path, monkeypatch):
        first = self._poisoned(str(tmp_path / "a"), monkeypatch)
        second = self._poisoned(str(tmp_path / "b"), monkeypatch)
        assert json.dumps(first.rows(), sort_keys=True, default=str) == \
            json.dumps(second.rows(), sort_keys=True, default=str)


class TestCampaignCLI:
    @staticmethod
    def _cli(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        return subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "scripts", "run_campaign.py"),
             "--difficulties", "easy"] + list(args),
            env=env, capture_output=True, text=True, timeout=600)

    def test_smoke_run_writes_rows(self, tmp_path):
        output = tmp_path / "campaign.json"
        completed = self._cli("--seeds", "2", "--frequencies", "100,250",
                              "--workers", "2", "--output", str(output))
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(output.read_text())
        assert payload["rows"], "campaign produced no aggregate rows"
        assert payload["overall"]["episodes"] == 4
        assert "episodes/s" in completed.stdout
        # Worker runs are supervised even without a checkpoint.
        assert payload["supervisor"]["fresh_chunks"] == 2
        assert "run_dir" not in payload

    @pytest.mark.parametrize("flag", [
        "--max-iterations=0", "--frequencies=-5", "--lease-size=0",
        "--max-retries=0", "--episode-timeout=-1", "--workers=0"])
    def test_impossible_spec_is_a_usage_error(self, tmp_path, flag):
        """An invalid grid or run option exits 2 with a usage message
        before anything runs: no traceback, no run directory."""
        checkpoint = tmp_path / "ckpt"
        completed = self._cli("--seeds", "1", flag, "--quiet",
                              "--checkpoint-dir", str(checkpoint))
        assert completed.returncode == 2, completed.stderr
        assert "error:" in completed.stderr
        assert "Traceback" not in completed.stderr
        assert not checkpoint.exists()

    def test_resume_of_missing_run_directory_rejected(self, tmp_path):
        """A mistyped ``--resume`` path is an error naming the path, not a
        fresh campaign started in a new directory."""
        missing = tmp_path / "no-such-run"
        completed = self._cli("--seeds", "1", "--quiet",
                              "--resume", str(missing))
        assert completed.returncode != 0
        assert str(missing) in completed.stderr
        assert "meta.json" in completed.stderr
        assert os.listdir(str(tmp_path)) == []

    def test_resume_excludes_checkpoint_dir(self, tmp_path):
        completed = self._cli("--seeds", "1", "--quiet",
                              "--resume", str(tmp_path / "run"),
                              "--checkpoint-dir", str(tmp_path / "ckpt"))
        assert completed.returncode != 0
        assert "not allowed with" in completed.stderr
        assert os.listdir(str(tmp_path)) == []
