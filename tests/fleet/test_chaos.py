"""Chaos harness: crash == no-crash, proven end to end.

The headline invariant of the durability layer
(:mod:`repro.fleet.durable` + :mod:`repro.fleet.supervisor`): a campaign
that is interrupted *anywhere* — a worker SIGKILL'd mid-chunk, the whole
parent process killed, a journal damaged on disk — and then resumed,
produces byte-identical aggregate rows and identical per-episode results
to the same campaign run without interference.

Faults are injected with :mod:`repro.fleet.chaos` via the ``REPRO_CHAOS``
environment variable, which crosses process and start-method boundaries.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.fleet import (
    CampaignSpec,
    EpisodeFactory,
    RetryPolicy,
    run_campaign,
)
from repro.fleet.chaos import corrupt_journal
from repro.fleet.durable import journal_path, result_to_dict

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", ".."))

# 64 episodes across two grid axes, sharded over 2 workers with 4-episode
# leases -> 16 chunks: enough structure that a mid-run fault lands inside
# meaningful partial progress.
SPEC = CampaignSpec(name="chaos", difficulties=("easy",), seeds=range(16),
                    frequencies_mhz=(100.0, 250.0),
                    max_admm_iterations=(5, 10))
WORKERS = 2
LEASE = 4


def _run(checkpoint_dir, retry=None, start_method=None):
    return run_campaign(SPEC, workers=WORKERS, checkpoint_dir=checkpoint_dir,
                        lease_size=LEASE, retry_policy=retry,
                        start_method=start_method)


def _rows_bytes(outcome):
    return json.dumps(outcome.rows(), sort_keys=True)


def _results_payload(outcome):
    return [result_to_dict(result) for result in outcome.results]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One undisturbed supervised run of SPEC — what every chaos run must
    reproduce byte-for-byte."""
    run_dir = str(tmp_path_factory.mktemp("chaos-reference"))
    outcome = _run(run_dir)
    assert len(outcome.results) == 64 and not outcome.failures
    return outcome


class TestKillChaos:
    def test_worker_sigkill_midrun_is_invisible(self, reference, tmp_path,
                                                monkeypatch):
        """SIGKILL a worker mid-campaign: the supervisor respawns it, the
        torn chunk re-runs, and the output is byte-identical."""
        monkeypatch.setenv("REPRO_CHAOS", json.dumps({
            "episode": 37, "mode": "kill", "max_triggers": 1,
            "state": str(tmp_path / "chaos.state")}))
        outcome = _run(str(tmp_path / "ckpt"),
                       retry=RetryPolicy(max_attempts=3, backoff_base=0.05))
        assert outcome.report.respawns >= 1
        assert not outcome.failures
        assert _rows_bytes(outcome) == _rows_bytes(reference)
        assert _results_payload(outcome) == _results_payload(reference)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_parent_sigkill_then_resume_byte_identical(
            self, reference, tmp_path, start_method):
        """Kill the *whole campaign process* mid-run, then resume: the
        journaled chunks replay, the rest re-run, output byte-identical.

        Subprocess-tested so the kill takes out the real supervisor, and
        parametrized over multiprocessing start methods (worker lifecycle
        and pickling differ between fork and spawn).
        """
        checkpoint = str(tmp_path / "ckpt")
        driver = tmp_path / "driver.py"
        driver.write_text(
            "import json, sys\n"
            "sys.path.insert(0, {!r})\n"
            "from repro.fleet import CampaignSpec, run_campaign\n"
            "spec = CampaignSpec.from_dict(json.loads(sys.argv[1]))\n"
            "run_campaign(spec, workers={}, checkpoint_dir=sys.argv[2],\n"
            "             lease_size={}, start_method={!r})\n"
            "print('COMPLETED')\n".format(
                os.path.join(REPO_ROOT, "src"), WORKERS, LEASE,
                start_method))
        process = subprocess.Popen(
            [sys.executable, str(driver), json.dumps(SPEC.to_dict()),
             checkpoint],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        journal = None
        deadline = time.monotonic() + 120
        # Kill as soon as the run has committed real partial progress.
        while time.monotonic() < deadline and process.poll() is None:
            if journal is None:
                candidates = ([os.path.join(checkpoint, d)
                               for d in os.listdir(checkpoint)]
                              if os.path.isdir(checkpoint) else [])
                runs = [d for d in candidates
                        if os.path.exists(journal_path(d))]
                if runs:
                    journal = journal_path(runs[0])
            elif open(journal, "rb").read().count(b'"t":"commit"') >= 2:
                process.kill()
                break
            time.sleep(0.02)
        process.wait(timeout=120)
        stdout = process.stdout.read()
        process.stdout.close()
        process.stderr.close()
        interrupted = "COMPLETED" not in stdout
        resumed = _run(checkpoint)
        if interrupted:
            # The resume actually had fresh chunks to run (the interesting
            # case; on an overloaded machine the driver may finish first,
            # which degrades to the pure-replay case).
            assert resumed.report.fresh_chunks > 0
        assert _rows_bytes(resumed) == _rows_bytes(reference)
        assert _results_payload(resumed) == _results_payload(reference)


class TestJournalDamage:
    @pytest.mark.parametrize("mode", ["truncate", "flip", "garbage"])
    def test_corrupt_journal_recovered_on_resume(self, reference, tmp_path,
                                                 mode):
        """Damage the completed reference journal; the resume must detect
        the corruption (per-record CRC), discard the torn tail, re-run
        exactly the lost chunks, and still match byte-for-byte."""
        run_dir = str(tmp_path / "damaged")
        shutil.copytree(reference.run_dir, run_dir)
        corrupt_journal(journal_path(run_dir), mode)
        resumed = _run(run_dir)
        if mode in ("truncate", "flip"):
            assert resumed.report.fresh_chunks >= 1
        assert _rows_bytes(resumed) == _rows_bytes(reference)
        assert _results_payload(resumed) == _results_payload(reference)

    def test_fully_journaled_resume_is_pure_replay(self, reference,
                                                   monkeypatch):
        """Resuming a finished run rebuilds nothing: no worker process is
        spawned and no episode is constructed — bounded resume overhead."""
        def _no_build(self, spec, episode_id):
            raise AssertionError("resume must not rebuild episodes")
        monkeypatch.setattr(EpisodeFactory, "build", _no_build)
        resumed = _run(reference.run_dir)
        assert resumed.report.spawned_workers == 0
        assert resumed.report.fresh_chunks == 0
        assert resumed.report.replayed_chunks > 0
        assert _rows_bytes(resumed) == _rows_bytes(reference)
        assert _results_payload(resumed) == _results_payload(reference)


class TestPoisonAndHang:
    SMALL = CampaignSpec(name="poison", difficulties=("easy",),
                         seeds=range(8), frequencies_mhz=(100.0, 250.0))

    def _run_small(self, checkpoint_dir, retry=None):
        return run_campaign(self.SMALL, workers=2, checkpoint_dir=checkpoint_dir,
                            lease_size=4, retry_policy=retry)

    def test_poisoned_episode_quarantined_not_fatal(self, tmp_path,
                                                    monkeypatch):
        """One deterministically-raising episode costs one structured
        failure row; every sibling still completes with outcomes matching
        a campaign without the poison."""
        clean = self._run_small(str(tmp_path / "clean"))
        monkeypatch.setenv("REPRO_CHAOS",
                           json.dumps({"episode": 5, "mode": "raise"}))
        retry = RetryPolicy(max_attempts=2, backoff_base=0.02)
        poisoned = self._run_small(str(tmp_path / "poisoned"), retry=retry)

        assert [f.index for f in poisoned.failures] == [5]
        failure = poisoned.failures[0]
        assert failure.error_type == "ChaosError"
        assert failure.attempts == retry.max_attempts
        assert poisoned.report.quarantined == 1
        failure_rows = [row for row in poisoned.rows()
                        if row.get("status") == "quarantined"]
        assert len(failure_rows) == 1 and failure_rows[0]["index"] == 5
        assert poisoned.overall()["quarantined_episodes"] == 1

        assert poisoned.results[5] is None
        for index, (a, b) in enumerate(zip(clean.results, poisoned.results)):
            if index == 5:
                continue
            # Bisection reroutes the poisoned chunk's siblings through the
            # scalar path, so their floats may differ in round-off from the
            # batched clean run; discrete outcomes must agree exactly.
            assert b is not None
            assert a.success == b.success and a.crashed == b.crashed
            assert a.flight_time_s == b.flight_time_s

    def test_poisoned_campaign_is_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS",
                           json.dumps({"episode": 3, "mode": "raise"}))
        retry = RetryPolicy(max_attempts=2, backoff_base=0.02)
        first = self._run_small(str(tmp_path / "a"), retry=retry)
        second = self._run_small(str(tmp_path / "b"), retry=retry)
        assert _rows_bytes(first) == _rows_bytes(second)
        # And resuming the (completed) poisoned run replays the failure row
        # rather than re-running the poison.
        monkeypatch.delenv("REPRO_CHAOS")
        resumed = self._run_small(str(tmp_path / "a"))
        assert resumed.report.spawned_workers == 0
        assert _rows_bytes(resumed) == _rows_bytes(first)

    def test_hung_episode_trips_chunk_timeout_then_recovers(self, tmp_path,
                                                            monkeypatch):
        """A wedged episode (sleep) hits the per-chunk deadline: the worker
        is killed, the chunk retries, and — the hang being transient — the
        campaign completes with clean-run-identical output."""
        clean = self._run_small(str(tmp_path / "clean"))
        monkeypatch.setenv("REPRO_CHAOS", json.dumps({
            "episode": 6, "mode": "hang", "hang_s": 120, "max_triggers": 1,
            "state": str(tmp_path / "chaos.state")}))
        retry = RetryPolicy(max_attempts=3, backoff_base=0.05,
                            episode_timeout=2.0)
        outcome = self._run_small(str(tmp_path / "hung"), retry=retry)
        assert outcome.report.retries >= 1
        assert not outcome.failures
        assert _rows_bytes(outcome) == _rows_bytes(clean)


class TestInterruptCLI:
    """The satellite contract for ``scripts/run_campaign.py``: Ctrl-C exits
    with a distinct status and a resume hint, and the resumed invocation
    reproduces an uninterrupted run."""

    ARGS = ["--difficulties", "easy", "--seeds", "16",
            "--frequencies", "100,250", "--workers", "2",
            "--lease-size", "4", "--quiet"]

    def _cli(self, extra, **popen_kwargs):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        return subprocess.Popen(
            [sys.executable,
             os.path.join(REPO_ROOT, "scripts", "run_campaign.py")]
            + self.ARGS + extra,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, **popen_kwargs)

    def test_sigint_exits_130_with_resume_hint_then_resumes(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        reference_out = tmp_path / "reference.json"
        process = self._cli(["--checkpoint-dir", str(tmp_path / "ref"),
                             "--output", str(reference_out)])
        assert process.wait(timeout=600) == 0
        process.stdout.close()
        process.stderr.close()
        reference_rows = json.loads(reference_out.read_text())["rows"]

        # Interrupt a fresh run once real progress is journaled.  The CLI
        # runs in its own session so the SIGINT hits the process group the
        # way a terminal Ctrl-C would (workers ignore it; the supervisor
        # owns teardown).
        process = self._cli(["--checkpoint-dir", checkpoint],
                            start_new_session=True)
        deadline = time.monotonic() + 120
        journal = None
        while time.monotonic() < deadline and process.poll() is None:
            if journal is None:
                if os.path.isdir(checkpoint):
                    runs = [os.path.join(checkpoint, d)
                            for d in os.listdir(checkpoint)]
                    runs = [d for d in runs if os.path.exists(journal_path(d))]
                    if runs:
                        journal = journal_path(runs[0])
            elif open(journal, "rb").read().count(b'"t":"commit"') >= 1:
                os.killpg(process.pid, signal.SIGINT)
                break
            time.sleep(0.02)
        returncode = process.wait(timeout=120)
        stderr = process.stderr.read()
        process.stdout.close()
        process.stderr.close()
        assert returncode == 130, stderr
        assert "resume with --resume" in stderr
        run_dir = stderr.split("--resume", 1)[1].strip().splitlines()[0].strip()
        assert os.path.exists(os.path.join(run_dir, "partial.json"))
        partial = json.loads(
            open(os.path.join(run_dir, "partial.json")).read())
        assert partial["completed_episodes"] < partial["total_episodes"]

        resumed_out = tmp_path / "resumed.json"
        process = self._cli(["--resume", run_dir,
                             "--output", str(resumed_out)])
        assert process.wait(timeout=600) == 0
        process.stdout.close()
        process.stderr.close()
        payload = json.loads(resumed_out.read_text())
        assert payload["rows"] == reference_rows
        assert payload["supervisor"]["replayed_chunks"] >= 1
        assert payload["run_dir"] == run_dir

    def test_sigint_without_checkpoint_exits_130_unsaved(self, tmp_path):
        """An uncheckpointed worker run has nothing to resume: Ctrl-C still
        exits 130, says so, and writes no partial rows anywhere."""
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        process = subprocess.Popen(
            [sys.executable,
             os.path.join(REPO_ROOT, "scripts", "run_campaign.py"),
             "--difficulties", "easy", "--seeds", "32",
             "--frequencies", "100,250", "--workers", "2"],
            cwd=str(tmp_path), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        process.stdout.readline()       # the spec description: the run starts
        time.sleep(1.0)
        os.killpg(process.pid, signal.SIGINT)
        returncode = process.wait(timeout=120)
        stderr = process.stderr.read()
        process.stdout.close()
        process.stderr.close()
        assert returncode == 130, stderr
        assert "progress not saved" in stderr
        assert os.listdir(str(tmp_path)) == []
