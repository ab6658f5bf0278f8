"""Campaign execution: one chunk function, run inline or by supervised workers.

Every campaign is cut into chunks by :func:`~repro.fleet.durable.plan_chunks`
and every chunk runs through :class:`ChunkRunner`: in this process for a
one-worker run without a checkpoint (:func:`run_inline`), or leased to
worker processes (:func:`run_supervised`).  A chunk hands back its
per-episode results and scheduler stats; both paths fold them through the
same assembly (:func:`_assemble`), which aggregates every result once, in
campaign order, so for one execution plan the output does not depend on
the path.

The supervisor owns a set of worker *processes*; fault isolation is the
point: a segfault in a compiled kernel backend or an OOM-kill must take out
a lease, not the campaign.  With a checkpoint directory each completed
chunk is journaled and committed before its lease is considered done, so
the journal always reflects exactly the set of chunks whose results are
durable; without one the same bookkeeping runs and nothing is written.

Failure handling, in escalation order:

1. **Retry with backoff** — a failed chunk (worker death, injected
   exception, per-chunk timeout) re-enters the queue with exponentially
   increasing delay, up to :attr:`RetryPolicy.max_attempts`.
2. **Bisect** — when a multi-episode chunk exhausts its attempts it is
   split in half and each half re-runs *on the scalar path* (bit-for-bit
   independent of grouping, so the split cannot perturb surviving
   episodes' numerics); log2 rounds isolate the poisoned episode.
3. **Quarantine** — a singleton chunk that exhausts its attempts becomes
   a structured :class:`~repro.fleet.durable.EpisodeFailure` row in the
   journal and the output; the campaign carries on.
4. **Degrade** — dead workers are respawned within
   :attr:`RetryPolicy.respawn_budget`; past the budget the campaign
   continues on the surviving workers, and only when *no* worker is left
   does the run stop — with the journal flushed, so ``--resume`` picks up
   where it died.

``KeyboardInterrupt`` tears the workers down.  A checkpointed run flushes
the journal and raises :class:`~repro.fleet.durable.CampaignInterrupted`
carrying the run directory and partial per-cell rows; a run without a
checkpoint re-raises the interrupt.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import signal
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from . import design_point
from .aggregate import FleetAggregator
from .campaign import CampaignSpec, EpisodeFactory, EpisodeSpec
from .chaos import maybe_inject
from .durable import (CampaignInterrupted, ChunkPlan, EpisodeFailure,
                      ExecutionPlan, ReplayState, RunJournal, journal_path,
                      plan_chunks, prepare_run, replay_journal,
                      result_from_dict, result_to_dict, stats_from_dict,
                      stats_to_dict)
from .scheduler import FleetScheduler, SchedulerStats

__all__ = ["ChunkRunner", "RetryPolicy", "SupervisorReport", "RunOutcome",
           "run_inline", "run_supervised"]


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for the supervisor's failure handling.

    ``episode_timeout`` is per *episode*; a chunk's deadline is the
    timeout times its episode count (a chunk of slow-but-healthy
    episodes is not a hang).  ``None`` disables deadlines.
    """

    max_attempts: int = 3
    backoff_base: float = 0.25
    episode_timeout: Optional[float] = None
    respawn_budget: int = 8

    def __post_init__(self) -> None:
        # The CLI's --max-retries and --episode-timeout arrive here as given.
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1, got {!r}"
                             .format(self.max_attempts))
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0, got {!r}".format(
                self.backoff_base))
        if self.episode_timeout is not None and not self.episode_timeout > 0:
            raise ValueError("episode_timeout must be positive or None, got "
                             "{!r}".format(self.episode_timeout))
        if self.respawn_budget < 0:
            raise ValueError("respawn_budget must be >= 0, got {!r}".format(
                self.respawn_budget))


@dataclass
class SupervisorReport:
    """Accounting for one supervised run — what the fault layer did."""

    replayed_chunks: int = 0
    fresh_chunks: int = 0
    spawned_workers: int = 0
    respawns: int = 0
    retries: int = 0
    bisections: int = 0
    quarantined: int = 0

    def as_row(self) -> Dict[str, int]:
        return {"replayed_chunks": self.replayed_chunks,
                "fresh_chunks": self.fresh_chunks,
                "spawned_workers": self.spawned_workers,
                "respawns": self.respawns, "retries": self.retries,
                "bisections": self.bisections,
                "quarantined": self.quarantined}


@dataclass
class RunOutcome:
    """What :func:`run_inline` / :func:`run_supervised` hand back to
    ``run_campaign``."""

    run_dir: Optional[str]                # set for checkpointed runs
    results: List[Optional[object]]       # campaign order
    aggregate: FleetAggregator
    stats: SchedulerStats
    failures: List[EpisodeFailure]
    report: Optional[SupervisorReport]    # None for inline runs


# ---------------------------------------------------------------------------
# The chunk function
# ---------------------------------------------------------------------------

class ChunkRunner:
    """Builds and runs chunks: the one way a campaign's episodes execute.

    :func:`run_inline` calls it in-process and every supervised worker
    holds one across its leases.  HIL episodes fly through one
    :class:`FleetScheduler` per chunk; design points need no solver, so
    the runner evaluates them itself.  Its :class:`EpisodeFactory` persists
    across chunks; the factory's memoization (problems, caches, SoC
    curves) is deterministic, so reuse changes speed, never numbers.
    ``stage`` names the step the current chunk has reached — what a
    quarantine row reports when the chunk raises.
    """

    def __init__(self, plan: ExecutionPlan) -> None:
        self.plan = plan
        self.factory = EpisodeFactory()
        self.stage = "build"

    def __call__(self, chunk: ChunkPlan,
                 specs: Sequence[EpisodeSpec]) -> Dict[str, object]:
        """Run one chunk; returns the payload its commit records."""
        self.stage = "build"
        designs, episodes = [], []
        for index, spec in zip(chunk.indices, specs):
            maybe_inject(index)
            if isinstance(spec, design_point.DesignPointSpec):
                designs.append((index, spec))
            else:
                episodes.append(self.factory.build(spec, episode_id=index))
        self.stage = "run"
        # Called through the module attribute, so a tracer patched onto
        # design_point.evaluate_design_point sees every evaluation.
        results = {index: design_point.evaluate_design_point(spec)
                   for index, spec in designs}
        scheduler = FleetScheduler(episodes, batching=chunk.batching,
                                   max_batch=self.plan.max_batch)
        for episode, result in zip(episodes, scheduler.run()):
            results[episode.episode_id] = result
        return {"results": [result_to_dict(results[index])
                            for index in chunk.indices],
                "stats": stats_to_dict(scheduler.stats)}


def _assemble(episode_specs: Sequence[EpisodeSpec], ledger: ReplayState):
    """Fold committed chunk payloads into campaign-order outputs.

    Deterministic regardless of which path ran the chunks and which were
    replayed: per-episode results aggregate in campaign order; stats merge
    in sorted-chunk-id order (bisected children sort inside their parent's
    slot).
    """
    stats = SchedulerStats()
    for chunk_id in sorted(ledger.stats):
        stats.merge(stats_from_dict(ledger.stats[chunk_id]))
    aggregator = FleetAggregator()
    results: List[Optional[object]] = [None] * len(episode_specs)
    for index, payload in ledger.results.items():
        results[index] = result_from_dict(payload)
    for spec, result in zip(episode_specs, results):
        if result is not None:
            aggregator.add(result, key=spec.cell_key())
    return results, aggregator, stats


def run_inline(episode_specs: Sequence[EpisodeSpec],
               plan: ExecutionPlan) -> RunOutcome:
    """Run every chunk of ``plan`` in this process, in plan order.

    No worker, journal or retry: an exception propagates to the caller.
    """
    runner = ChunkRunner(plan)
    ledger = ReplayState()
    for chunk in plan_chunks(len(episode_specs), plan):
        ledger.commit(chunk, runner(
            chunk, [episode_specs[index] for index in chunk.indices]))
    results, aggregator, stats = _assemble(episode_specs, ledger)
    return RunOutcome(run_dir=None, results=results, aggregate=aggregator,
                      stats=stats, failures=[], report=None)


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

def _supervised_worker(conn, results, plan_payload, parent_pid) -> None:
    """Worker loop: receive a chunk lease, run it, ship the outcome.

    Module-level so it pickles under every start method.  SIGINT is
    ignored — a Ctrl-C in the parent's terminal hits the whole process
    group, and teardown must stay in the supervisor's hands so the journal
    is flushed before anything dies.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    runner = ChunkRunner(ExecutionPlan.from_dict(plan_payload))
    while True:
        try:
            # Poll rather than block: under the fork start method every
            # worker inherits its siblings' pipe ends, so a SIGKILL'd
            # supervisor never produces EOF here — the orphan check is
            # what lets workers die with their parent.
            while not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        chunk, specs = message
        try:
            results.put(("done", chunk.chunk_id, runner(chunk, specs)))
        except KeyboardInterrupt:
            return
        except BaseException as exc:  # noqa: BLE001 — quarantine, don't die
            results.put(("error", chunk.chunk_id,
                         {"stage": runner.stage,
                          "error_type": type(exc).__name__,
                          "message": str(exc)}))


@dataclass
class _Lease:
    item: "_PendingChunk"
    deadline: Optional[float]


@dataclass
class _PendingChunk:
    chunk: ChunkPlan
    attempts: int = 0
    ready_at: float = 0.0


class _Worker:
    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.lease: Optional[_Lease] = None


class _NoJournal:
    """The journal of a run without a checkpoint directory: keeps nothing."""

    def append(self, record: Dict[str, object], sync: bool = False) -> None:
        pass

    def flush(self) -> None:
        pass

    close = flush


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------

class _Supervisor:
    def __init__(self, episode_specs: Sequence[EpisodeSpec],
                 plan: ExecutionPlan, journal, ledger: ReplayState,
                 retry: RetryPolicy, workers: int,
                 context, report: SupervisorReport) -> None:
        self.episode_specs = episode_specs
        self.plan = plan
        self.journal = journal
        self.ledger = ledger
        self.retry = retry
        self.max_workers = workers
        self.context = context
        self.report = report
        self.results_queue = context.Queue()
        self.workers: List[_Worker] = []
        self.pending: List[_PendingChunk] = []

    # -- worker lifecycle --------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self.context.Pipe()
        process = self.context.Process(
            target=_supervised_worker,
            args=(child_conn, self.results_queue, self.plan.to_dict(),
                  os.getpid()),
            daemon=True)
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn)
        self.workers.append(worker)
        self.report.spawned_workers += 1
        return worker

    def _kill_worker(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5)
        if worker in self.workers:
            self.workers.remove(worker)

    def teardown(self) -> None:
        for worker in list(self.workers):
            self._kill_worker(worker)
        self.journal.flush()

    # -- failure handling --------------------------------------------------

    def _chunk_failed(self, item: _PendingChunk, stage: str,
                      error_type: str, message: str, now: float) -> None:
        item.attempts += 1
        if item.attempts < self.retry.max_attempts:
            self.report.retries += 1
            item.ready_at = now + (self.retry.backoff_base
                                   * (2 ** (item.attempts - 1)))
            self.pending.append(item)
            return
        if len(item.chunk.indices) > 1:
            # Attempts exhausted on a multi-episode chunk: bisect onto the
            # scalar path to isolate the poison without perturbing the
            # siblings' numerics.
            self.report.bisections += 1
            for half in item.chunk.halves():
                self.pending.append(_PendingChunk(half))
            return
        index = item.chunk.indices[0]
        failure = EpisodeFailure(
            index=index, label=self.episode_specs[index].label(),
            stage=stage, error_type=error_type, message=message,
            attempts=item.attempts, chunk_id=item.chunk.chunk_id)
        self.ledger.failures[index] = failure
        self.report.quarantined += 1
        self.journal.append({"t": "fail", "c": item.chunk.chunk_id,
                             "i": index, "f": failure.to_dict()})
        self.journal.append({"t": "commit", "c": item.chunk.chunk_id,
                             "i": [index],
                             "s": stats_to_dict(SchedulerStats())},
                            sync=True)

    def _chunk_done(self, chunk: ChunkPlan,
                    payload: Dict[str, object]) -> None:
        for index, result in zip(chunk.indices, payload["results"]):
            self.journal.append({"t": "episode", "c": chunk.chunk_id,
                                 "i": index, "r": result})
        self.journal.append({"t": "commit", "c": chunk.chunk_id,
                             "i": list(chunk.indices),
                             "s": payload["stats"]}, sync=True)
        self.ledger.commit(chunk, payload)

    # -- main loop ---------------------------------------------------------

    def _find_lease(self, chunk_id: str) -> Optional[_Worker]:
        for worker in self.workers:
            if worker.lease is not None \
                    and worker.lease.item.chunk.chunk_id == chunk_id:
                return worker
        return None

    def _dispatch(self, now: float) -> None:
        ready = [item for item in self.pending if item.ready_at <= now]
        if not ready:
            return
        for worker in self.workers:
            if not ready:
                return
            if worker.lease is not None or not worker.process.is_alive():
                continue
            item = min(ready, key=lambda entry: entry.chunk.chunk_id)
            ready.remove(item)
            self.pending.remove(item)
            chunk = item.chunk
            deadline = None
            if self.retry.episode_timeout is not None:
                deadline = now + (self.retry.episode_timeout
                                  * len(chunk.indices))
            specs = [self.episode_specs[i] for i in chunk.indices]
            try:
                worker.conn.send((chunk, specs))
            except (OSError, ValueError, BrokenPipeError):
                # Worker died between liveness check and send; the death
                # sweep will pick it up next tick.
                self.pending.append(item)
                continue
            worker.lease = _Lease(item=item, deadline=deadline)

    def _sweep_failures(self, now: float) -> None:
        live_needed = bool(self.pending) or any(
            worker.lease is not None for worker in self.workers)
        for worker in list(self.workers):
            lease = worker.lease
            if worker.process.is_alive():
                if lease is not None and lease.deadline is not None \
                        and now > lease.deadline:
                    item = lease.item
                    worker.lease = None
                    self._kill_worker(worker)
                    self._chunk_failed(
                        item, "timeout", "TimeoutError",
                        "chunk {} exceeded {:.3g}s deadline".format(
                            item.chunk.chunk_id,
                            self.retry.episode_timeout
                            * len(item.chunk.indices)), now)
                continue
            # Dead worker.
            if lease is not None:
                item = lease.item
                worker.lease = None
                self._chunk_failed(
                    item, "worker-death", "WorkerDied",
                    "worker pid {} died while running chunk {}".format(
                        worker.process.pid, item.chunk.chunk_id), now)
            self._kill_worker(worker)
        if not live_needed:
            return
        # Respawn within budget so the campaign keeps its parallelism;
        # past the budget we degrade to however many workers survive.
        while (self.pending and len(self.workers) < self.max_workers
               and self.report.respawns < self.retry.respawn_budget
               and len(self.workers) < len(self.pending) + sum(
                   1 for w in self.workers if w.lease is not None)):
            self._spawn_worker()
            self.report.respawns += 1

    def run(self, chunks: Sequence[ChunkPlan]) -> None:
        self.pending = [_PendingChunk(chunk) for chunk in chunks]
        if not self.pending:
            return
        for _ in range(min(self.max_workers, len(self.pending))):
            self._spawn_worker()
        poll_s = 0.05
        while self.pending or any(w.lease is not None for w in self.workers):
            now = time.monotonic()
            self._dispatch(now)
            try:
                kind, chunk_id, payload = self.results_queue.get(
                    timeout=poll_s)
            except queue_module.Empty:
                kind = None
            except Exception:
                # A SIGKILL'd worker can tear a half-written queue message;
                # drop it — the uncommitted chunk re-runs via the sweep.
                kind = None
            now = time.monotonic()
            if kind is not None:
                worker = self._find_lease(chunk_id)
                if worker is not None:
                    item = worker.lease.item
                    worker.lease = None
                    if kind == "done":
                        self._chunk_done(item.chunk, payload)
                    else:
                        self._chunk_failed(item, payload["stage"],
                                           payload["error_type"],
                                           payload["message"], now)
            self._sweep_failures(now)
            if (self.pending
                    and not any(w.lease is not None for w in self.workers)
                    and not self.workers):
                self.journal.flush()
                raise RuntimeError(
                    "all campaign workers died and the respawn budget "
                    "({} respawns) is exhausted; progress so far is "
                    "journaled — resume with --resume".format(
                        self.retry.respawn_budget))

    def shutdown_workers(self) -> None:
        for worker in list(self.workers):
            try:
                worker.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        for worker in list(self.workers):
            worker.process.join(timeout=5)
            self._kill_worker(worker)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _replay(state: ReplayState, chunks: Sequence[ChunkPlan],
            ledger: ReplayState, report: SupervisorReport) -> List[ChunkPlan]:
    """Copy the fully journaled chunks of ``state`` into ``ledger``;
    returns the chunks that still have to run."""
    pending: List[ChunkPlan] = []
    for chunk in chunks:
        # A committed chunk id is either the planned id itself or a
        # bisection descendant (planned id + letter suffixes); base ids
        # share a fixed width, so prefix matching cannot cross chunks.
        group = [cid for cid in state.committed
                 if cid.startswith(chunk.chunk_id)]
        covered = set()
        for cid in group:
            covered.update(state.committed[cid])
        if covered == set(chunk.indices):
            report.replayed_chunks += 1
            for index in chunk.indices:
                if index in state.results:
                    ledger.results[index] = state.results[index]
                elif index in state.failures:
                    ledger.failures[index] = state.failures[index]
            for cid in group:
                if cid in state.stats:
                    ledger.stats[cid] = state.stats[cid]
        else:
            # Partially covered (crash mid-bisection): discard the partial
            # commits and re-run the whole planned chunk, so the re-run's
            # batch round-off matches an uninterrupted run.
            pending.append(chunk)
    return pending


def run_supervised(campaign: Optional[CampaignSpec],
                   episode_specs: Sequence[EpisodeSpec],
                   plan: ExecutionPlan,
                   checkpoint_dir: Optional[str] = None,
                   retry: Optional[RetryPolicy] = None,
                   workers: int = 1,
                   start_method: Optional[str] = None) -> RunOutcome:
    """Run a campaign's chunks on supervised worker processes.

    With ``checkpoint_dir`` the run is durable and resumable: chunks
    already committed in the run directory's journal are replayed without
    rebuilding episodes; if *every* chunk is committed, no worker process
    is spawned at all (``report.spawned_workers == 0``) — resume of a
    finished campaign is a pure journal read.  Without it nothing is
    written to disk.
    """
    retry = retry or RetryPolicy()
    chunks = plan_chunks(len(episode_specs), plan)
    report = SupervisorReport()
    ledger = ReplayState()
    run_dir = None
    journal = _NoJournal()
    if checkpoint_dir is not None:
        run_dir, _meta, _fresh = prepare_run(
            checkpoint_dir, campaign, episode_specs, plan)
        journal = RunJournal(journal_path(run_dir))
        chunks = _replay(replay_journal(journal.open()), chunks, ledger,
                         report)
    report.fresh_chunks = len(chunks)

    context = (multiprocessing.get_context(start_method) if start_method
               else multiprocessing.get_context())
    supervisor = _Supervisor(episode_specs, plan, journal, ledger, retry,
                             workers, context, report)
    try:
        supervisor.run(chunks)
        supervisor.shutdown_workers()
    except KeyboardInterrupt:
        supervisor.teardown()
        journal.close()
        if run_dir is None:
            raise
        _results, aggregator, _stats = _assemble(episode_specs, ledger)
        completed = len(ledger.results) + len(ledger.failures)
        raise CampaignInterrupted(
            run_dir, completed, len(episode_specs),
            partial_rows=(aggregator.rows() + aggregator.recovery_rows()
                          + aggregator.design_rows()))
    except BaseException:
        supervisor.teardown()
        journal.close()
        raise
    journal.close()

    results, aggregator, stats = _assemble(episode_specs, ledger)
    failures = [ledger.failures[index] for index in sorted(ledger.failures)]
    return RunOutcome(run_dir=run_dir, results=results, aggregate=aggregator,
                      stats=stats, failures=failures, report=report)
