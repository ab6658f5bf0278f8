"""Campaign execution: one chunk plan, run inline or on supervised workers.

:func:`run_campaign` is the one entry point: it expands a
:class:`~repro.fleet.campaign.CampaignSpec` (or takes pre-expanded
:class:`~repro.fleet.campaign.EpisodeSpec` lists) and always cuts the
episodes into chunks with :func:`~repro.fleet.durable.plan_chunks`:
round-robin shards (shard ``s`` owns episodes ``s, s+W, s+2W, ...``, so
every shard gets a representative slice of the grid and batch groups stay
wide) cut into leases.  Each chunk runs through one
:class:`~repro.fleet.supervisor.ChunkRunner` and its scheduler, so a
chunk's membership fixes its batch widths and with them its GEMM round-off.

A run with one worker and no checkpoint runs the chunks in-process; any
other run leases them to supervised worker processes
(:mod:`repro.fleet.supervisor`).  Every run keeps its per-episode results
and aggregates them once, in campaign order, after the last chunk.
Results depend only on the spec and the plan (workers, lease size,
batching, ``max_batch``), never on which path ran it.  Because scenario
seeds derive from a sha256 digest, not the salted builtin ``hash``, the
same campaign produces the same per-episode results in every process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..hil.episode import EpisodeResult
from . import supervisor
from .aggregate import FleetAggregator
from .campaign import CampaignSpec, EpisodeSpec
from .durable import DEFAULT_LEASE_SIZE, EpisodeFailure, ExecutionPlan
from .scheduler import SchedulerStats

__all__ = ["CampaignResult", "run_campaign"]


@dataclass
class CampaignResult:
    """Everything a campaign run produced.

    ``results`` holds per-episode outcomes in campaign order
    (:class:`~repro.hil.metrics.ScenarioResult` for waypoint episodes,
    :class:`~repro.drone.disturbance.RecoveryResult` for recovery
    episodes, ``None`` for a quarantined one).
    """

    campaign: Optional[CampaignSpec]
    episodes: List[EpisodeSpec]
    results: List[EpisodeResult]          # campaign order
    aggregate: FleetAggregator
    stats: SchedulerStats
    workers: int = 1
    failures: List[EpisodeFailure] = field(default_factory=list)
    run_dir: Optional[str] = None         # set for checkpointed runs
    report: Optional[object] = None       # SupervisorReport, if supervised

    def rows(self) -> List[Dict[str, object]]:
        """Aggregate rows (waypoint, recovery, then design cells), then one
        structured row per quarantined episode."""
        return (self.aggregate.rows() + self.aggregate.recovery_rows()
                + self.aggregate.design_rows()
                + [failure.as_row() for failure in self.failures])

    def overall(self) -> Dict[str, object]:
        summary = self.aggregate.overall()
        summary["workers"] = self.workers
        # ``episodes`` stays the aggregate's count: the scheduler counts
        # only the HIL episodes it flew, not the design points.
        stats = self.stats.as_row()
        del stats["episodes"]
        summary.update(stats)
        if self.failures:
            summary["quarantined_episodes"] = len(self.failures)
        return summary


def run_campaign(campaign: Union[CampaignSpec, Sequence[EpisodeSpec]],
                 workers: int = 1, batching: bool = True,
                 max_batch: Optional[int] = None,
                 start_method: Optional[str] = None,
                 checkpoint_dir: Optional[str] = None,
                 retry_policy=None,
                 lease_size: Optional[int] = None) -> CampaignResult:
    """Run a campaign in-process or on supervised worker processes.

    Args:
        campaign: a :class:`CampaignSpec` or an explicit episode list.
        workers: round-robin shards and worker processes.  ``1`` without
            ``checkpoint_dir`` runs in-process, and an exception raised
            by an episode propagates; every other run is supervised
            (retry, bisection, quarantine) and reports what the fault
            layer did in :attr:`CampaignResult.report`.
        batching: route compatible solves through the dynamic batcher
            (``False`` is the bit-for-bit scalar reference path).
        max_batch: optional cap on batched solver width per group
            (at least 1).
        start_method: multiprocessing start method (default: platform default).
        checkpoint_dir: make the run durable (:mod:`repro.fleet.durable`):
            chunks are journaled to a content-addressed run directory under
            this path, and already-journaled chunks are skipped on restart.
        retry_policy: a :class:`~repro.fleet.supervisor.RetryPolicy` for
            supervised runs (default policy when ``None``).
        lease_size: episodes per chunk — the atomic unit of checkpointing,
            re-execution and batched round-off.  ``None`` means one chunk
            per shard without a checkpoint and, with one, chunks of
            :data:`~repro.fleet.durable.DEFAULT_LEASE_SIZE` episodes, so a
            shard no longer than that still flies as one batch.
    """
    if isinstance(campaign, CampaignSpec):
        spec: Optional[CampaignSpec] = campaign
        episode_specs = campaign.expand()
    else:
        spec = None
        episode_specs = list(campaign)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if lease_size is None:
        lease_size = (DEFAULT_LEASE_SIZE if checkpoint_dir is not None
                      else max(1, -(-len(episode_specs) // workers)))
    elif lease_size < 1:
        raise ValueError("lease_size must be at least 1, got {!r}".format(
            lease_size))
    if max_batch is not None and max_batch < 1:
        raise ValueError("max_batch must be at least 1, got {!r}".format(
            max_batch))
    plan = ExecutionPlan(shards=workers, lease_size=lease_size,
                         batching=batching, max_batch=max_batch)

    if workers == 1 and checkpoint_dir is None:
        outcome = supervisor.run_inline(episode_specs, plan)
    else:
        outcome = supervisor.run_supervised(
            spec, episode_specs, plan, checkpoint_dir, retry=retry_policy,
            workers=workers, start_method=start_method)
    return CampaignResult(spec, episode_specs, outcome.results,
                          outcome.aggregate, outcome.stats, workers,
                          failures=outcome.failures,
                          run_dir=outcome.run_dir, report=outcome.report)
