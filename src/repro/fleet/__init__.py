"""Fleet campaign engine: event-driven dynamic batching over HIL episodes.

The north-star workload is fleet-scale serving of closed-loop MPC episodes
— "as many scenarios as you can imagine".  This package turns heterogeneous
episode grids (difficulty x seed x clock frequency x drone variant x solver
settings) into batched solver work:

* :mod:`repro.fleet.campaign` — the declarative :class:`CampaignSpec` DSL
  over the three workloads (``episode_kind``: waypoint flights,
  disturbance recovery, design points) and the memoizing
  :class:`EpisodeFactory`;
* :mod:`repro.fleet.scheduler` — the virtual-time :class:`FleetScheduler`
  that packs compatible solve requests into
  :class:`~repro.tinympc.batch.BatchTinyMPCSolver` dispatches;
* :mod:`repro.fleet.workers` — :func:`run_campaign`, which cuts every
  campaign into the same deterministic chunk plan and runs it in-process
  or on supervised worker processes;
* :mod:`repro.fleet.aggregate` — per-cell statistics over a campaign's
  results;
* :mod:`repro.fleet.durable` / :mod:`repro.fleet.supervisor` — the chunk
  plan, the one chunk function, supervised workers with
  retry/bisection/quarantine, and the checksummed completion journal with
  exact resume behind ``run_campaign(..., checkpoint_dir=...)`` (see
  ``docs/robustness.md``);
* :mod:`repro.fleet.chaos` — fault injection for the chaos tests;
* :mod:`repro.fleet.design_point` — the solver-less design-space
  exploration workload: its grid, evaluation and cells.

Quick example::

    from repro.fleet import CampaignSpec, run_campaign

    spec = CampaignSpec(difficulties=("easy", "medium"), seeds=range(8),
                        frequencies_mhz=(100.0, 250.0))
    outcome = run_campaign(spec, workers=2)
    for row in outcome.rows():
        print(row)
"""

from .aggregate import (
    CellAggregate,
    FleetAggregator,
    RecoveryCellAggregate,
    ReservoirSamples,
)
from .campaign import (
    CELL_AXES,
    RECOVERY_CELL_AXES,
    SPEC_SCHEMA_VERSION,
    CampaignSpec,
    EpisodeFactory,
    EpisodeSpec,
)
from .design_point import (
    DESIGN_CELL_AXES,
    DesignCellAggregate,
    DesignPointResult,
    DesignPointSpec,
    evaluate_design_point,
)
from .durable import (
    CampaignInterrupted,
    EpisodeFailure,
    ExecutionPlan,
    RunJournal,
    shard_indices,
)
from .scheduler import (
    FleetEpisode,
    FleetScheduler,
    SchedulerStats,
    SolverPool,
    compatibility_key,
    solver_pool,
)
from .supervisor import RetryPolicy, SupervisorReport
from .workers import CampaignResult, run_campaign

__all__ = [
    "CellAggregate",
    "FleetAggregator",
    "RecoveryCellAggregate",
    "ReservoirSamples",
    "CELL_AXES",
    "RECOVERY_CELL_AXES",
    "SPEC_SCHEMA_VERSION",
    "CampaignSpec",
    "EpisodeFactory",
    "EpisodeSpec",
    "DESIGN_CELL_AXES",
    "DesignCellAggregate",
    "DesignPointResult",
    "DesignPointSpec",
    "evaluate_design_point",
    "CampaignInterrupted",
    "EpisodeFailure",
    "ExecutionPlan",
    "RunJournal",
    "RetryPolicy",
    "SupervisorReport",
    "FleetEpisode",
    "FleetScheduler",
    "SchedulerStats",
    "SolverPool",
    "compatibility_key",
    "solver_pool",
    "CampaignResult",
    "run_campaign",
    "shard_indices",
]
