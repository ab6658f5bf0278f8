"""Event-driven fleet scheduler: dynamic batching across heterogeneous episodes.

The lockstep batched runner of PR 1 could only batch episodes that shared
*one* :class:`~repro.hil.loop.HILConfig` — any mixed sweep (different clock
frequencies, drone variants, control rates, or solver settings) fell back
to sequential scalar solves.  This scheduler removes that restriction:

* every episode of the run flies as one column of a single
  :class:`~repro.hil.episode.EpisodeBatch`, which advances episodes in
  lockstep until each asks for a solve; a request is the column's rows of
  the batch's ``x0``, ``goal`` and ``sample_time`` arrays, and the
  waiting columns form a virtual-time queue;
* a batcher groups pending requests by *solver compatibility* — identical
  MPC problem content (:func:`~repro.tinympc.problem.problem_hash`) and
  identical :class:`~repro.tinympc.solver.SolverSettings` — and dispatches
  each group as one :class:`~repro.tinympc.batch.BatchTinyMPCSolver` call;
* each episode owns one slot of its group's solver for the whole run, so
  its warm start never leaves the solver: a dispatch scatters its columns'
  states and goals into their slots, solves only those slots, and gathers
  their first inputs and iteration counts back; the other slots stay as
  their last solve left them.

Episodes never interact physically, so a solve request is causally
independent of every other episode's requests: the batcher is free to pack
requests carrying *different* virtual timestamps into one dispatch (the
per-episode solve order is preserved by construction, because an episode
has at most one outstanding request).  Dispatch order still follows virtual
time — the group holding the earliest pending request goes first — which
keeps runs deterministic and makes the dispatch trace physically readable.
After a dispatch, every episode it answered flies on together until it
blocks again or ends.

Numerical contract
------------------

With ``batching=False`` (or for singleton groups) every solve runs through
a scalar :class:`~repro.tinympc.solver.TinyMPCSolver` — literally the same
code path as :meth:`HILLoop.run_scenario` — so results are **bit-for-bit**
identical to sequential episode runs.  With batching enabled, solves run as
fixed-width GEMMs whose low bits differ from the scalar GEMV path by BLAS
round-off (~1e-15 per solve); iteration counts, solve times, success flags,
and every other discrete outcome remain exactly equal on all supported
scenarios, and float metrics agree to tight tolerances
(``tests/fleet/test_scheduler.py``).  A group's solver is as wide as its
population, fixed at construction, so repeated runs of one campaign are
bit-for-bit identical; a campaign's lease size bounds every group's width,
because a chunk's scheduler sees only that chunk's episodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hil.episode import EpisodeBatch, EpisodeResult, EpisodeRunner
from ..tinympc import (
    BatchTinyMPCSolver,
    MPCProblem,
    SolverSettings,
    TinyMPCSolver,
    problem_hash,
)
from ..tinympc.cache import LQRCache, compute_cache

__all__ = ["FleetEpisode", "FleetScheduler", "SchedulerStats", "SolverPool",
           "MAX_IDLE_PER_KEY", "compatibility_key", "solver_pool"]


def compatibility_key(problem: MPCProblem, settings: SolverSettings) -> Tuple:
    """Two episodes may share one batched solver iff their keys are equal.

    Compatibility requires identical problem *content* (dynamics, costs,
    bounds, horizon — i.e. identical workspace shapes and solve numerics)
    and identical termination settings.  Clock frequency, UART latency,
    and drone variant names do **not** appear: frequency only scales
    latency outside the solver, and two variants with different parameters
    already hash to different problems.
    """
    return (problem_hash(problem), settings.max_iterations,
            settings.abs_primal_tolerance, settings.abs_dual_tolerance,
            settings.warm_start)


@dataclass
class FleetEpisode:
    """One schedulable episode: a runner plus its solver identity.

    The runner is an :class:`EpisodeRunner` — a waypoint scenario or a
    disturbance-recovery episode, flown in the scheduler's lockstep batch.
    ``cache`` may be left out; the episode's solver group then computes it.
    """

    episode_id: int
    runner: EpisodeRunner
    problem: MPCProblem
    settings: SolverSettings
    cache: Optional[LQRCache] = None

    @property
    def group_key(self) -> Tuple:
        return compatibility_key(self.problem, self.settings)


@dataclass
class SchedulerStats:
    """Dispatch accounting for one scheduler run (one campaign chunk)."""

    episodes: int = 0
    groups: int = 0
    dispatches: int = 0
    solves: int = 0
    batched_solves: int = 0
    scalar_solves: int = 0
    max_batch_width: int = 0

    @property
    def mean_batch_width(self) -> float:
        # Every solve belongs to exactly one dispatch, so this is the mean
        # of the per-dispatch widths.
        return self.solves / self.dispatches if self.dispatches else 0.0

    def add_dispatch(self, width: int, batched: bool) -> None:
        """Account one dispatch that answered ``width`` requests."""
        self.dispatches += 1
        self.solves += width
        if batched:
            self.batched_solves += width
        else:
            self.scalar_solves += width
        self.max_batch_width = max(self.max_batch_width, width)

    def merge(self, other: "SchedulerStats") -> "SchedulerStats":
        self.episodes += other.episodes
        self.groups += other.groups
        self.dispatches += other.dispatches
        self.solves += other.solves
        self.batched_solves += other.batched_solves
        self.scalar_solves += other.scalar_solves
        self.max_batch_width = max(self.max_batch_width,
                                   other.max_batch_width)
        return self

    def as_row(self) -> Dict[str, float]:
        return {
            "episodes": self.episodes,
            "groups": self.groups,
            "dispatches": self.dispatches,
            "solves": self.solves,
            "batched_solves": self.batched_solves,
            "scalar_solves": self.scalar_solves,
            "mean_batch_width": self.mean_batch_width,
            "max_batch_width": self.max_batch_width,
        }


#: Idle solvers a :class:`SolverPool` parks per key; further releases drop.
MAX_IDLE_PER_KEY = 4


class SolverPool:
    """Process-local pool of batched solvers keyed by problem/settings/width.

    A :class:`~repro.tinympc.batch.BatchTinyMPCSolver` owns sizable arenas:
    the stacked workspace, its kernel scratch (:class:`~repro.tinympc
    .workspace.SolveScratch` — prebuilt step slabs, pair-row scratch,
    full-shape bounds), and the freeze/restore store.  Campaign runs, repeated benchmarks, and
    back-to-back scheduler invocations used to rebuild all of it per run;
    the pool parks released solvers keyed by
    ``(problem_hash, settings..., width)`` and hands them back reset, so a
    re-dispatched group's warmup cost is one ``reset()`` memset.

    Numerically invisible: a pooled solver is released only after
    ``reset()`` (zeroed workspace, cleared warm-start flags), the key pins
    the exact problem content and termination settings, and
    ``compute_cache`` is deterministic — so a reused solver is bit-for-bit
    a fresh one.

    Retention is bounded: at most :data:`MAX_IDLE_PER_KEY` solvers are
    parked per key (excess releases are simply dropped for the GC), so a
    long-lived process running many differently-shaped campaigns cannot
    accumulate arenas without limit.  ``clear()`` empties the pool
    outright.
    """

    def __init__(self) -> None:
        self._idle: Dict[Tuple, List[BatchTinyMPCSolver]] = {}
        self.acquires = 0
        self.hits = 0

    @staticmethod
    def _key(problem: MPCProblem, settings: SolverSettings,
             capacity: int) -> Tuple:
        # The active kernel backend joins the key: a workspace solved under
        # the C backend carries its cffi pointer struct, so a solver parked
        # under one backend must not be handed out under another even
        # though the solve numerics would recover.
        from ..tinympc.compiled import active_backend
        return (compatibility_key(problem, settings)
                + (capacity, active_backend()))

    def acquire(self, problem: MPCProblem, settings: SolverSettings,
                capacity: int,
                cache: Optional[LQRCache] = None) -> BatchTinyMPCSolver:
        """A reset solver for this (problem, settings, width) — pooled if one
        is idle, freshly constructed otherwise."""
        self.acquires += 1
        stack = self._idle.get(self._key(problem, settings, capacity))
        if stack:
            self.hits += 1
            return stack.pop()     # released solvers are already reset
        return BatchTinyMPCSolver(problem, capacity, settings,
                                  cache or compute_cache(problem))

    def release(self, solver: BatchTinyMPCSolver) -> None:
        """Park a solver for reuse.  The caller must not touch it afterwards.

        Beyond :data:`MAX_IDLE_PER_KEY` parked solvers for the same key,
        the release is a drop: the solver is simply left to the garbage
        collector.
        """
        key = self._key(solver.problem, solver.settings, solver.batch_size)
        stack = self._idle.setdefault(key, [])
        if len(stack) >= MAX_IDLE_PER_KEY:
            return
        solver.reset()
        stack.append(solver)

    def clear(self) -> None:
        self._idle.clear()

    @property
    def idle_count(self) -> int:
        return sum(len(stack) for stack in self._idle.values())


_GLOBAL_POOL = SolverPool()


def solver_pool() -> SolverPool:
    """The process-global solver pool used by default by schedulers."""
    return _GLOBAL_POOL


class _ScalarGroup:
    """Solver group backed by per-episode scalar solvers (the exact path)."""

    def __init__(self, problem: MPCProblem, settings: SolverSettings,
                 cache: Optional[LQRCache]) -> None:
        self.problem = problem
        self.settings = settings
        self.cache = cache or compute_cache(problem)
        self._solvers: Dict[int, TinyMPCSolver] = {}

    def solve(self, columns: np.ndarray, x0: np.ndarray, goal: np.ndarray,
              stats: SchedulerStats) -> Tuple[np.ndarray, np.ndarray]:
        controls = np.empty((len(columns), self.problem.input_dim))
        iterations = np.empty(len(columns), dtype=np.int64)
        for row, column in enumerate(columns.tolist()):
            solver = self._solvers.get(column)
            if solver is None:
                # A fresh solver is exactly a reset one — the same state
                # HILLoop.run_scenario starts each episode from.
                solver = TinyMPCSolver(self.problem, self.settings, self.cache)
                self._solvers[column] = solver
            solution = solver.solve(x0[column], Xref=goal[column])
            controls[row] = solution.control
            iterations[row] = solution.iterations
            stats.add_dispatch(1, batched=False)
        return controls, iterations

    def close(self) -> None:
        """Scalar solvers are per-episode and cheap; nothing is pooled."""


class _BatchGroup:
    """Solver group backed by one batched solver, one slot per member.

    Each episode owns the slot at its index in the group for the whole run,
    so its warm start never leaves the solver.  A dispatch writes its
    requests into their slots and solves with only those slots active; the
    other slots stay exactly as their last solve finished, and a finished
    episode's slot simply stays inactive.
    """

    def __init__(self, population: Sequence[FleetEpisode],
                 columns: Sequence[int], pool: SolverPool) -> None:
        first = population[0]
        problem = first.problem
        width = len(population)
        self.pool = pool
        self.solver = pool.acquire(problem, first.settings, width, first.cache)
        # Batch column -> slot, for every column up to the group's last.
        self._slots = np.zeros(max(columns) + 1, dtype=np.int64)
        self._slots[columns] = np.arange(width)
        self._x0 = np.zeros((width, problem.state_dim))
        self._goal = np.zeros((width, problem.state_dim))
        self._active = np.zeros(width, dtype=bool)

    def solve(self, columns: np.ndarray, x0: np.ndarray, goal: np.ndarray,
              stats: SchedulerStats) -> Tuple[np.ndarray, np.ndarray]:
        slots = self._slots[columns]
        self._active[:] = False
        self._active[slots] = True
        self._x0[slots] = x0[columns]
        self._goal[slots] = goal[columns]
        solution = self.solver.solve(self._x0, Xref=self._goal,
                                     active=self._active)
        stats.add_dispatch(len(columns), batched=True)
        return solution.inputs[slots, 0], solution.iterations[slots]

    def close(self) -> None:
        """Return the solver to the pool (the group must not solve again)."""
        self.pool.release(self.solver)
        self.solver = None


class FleetScheduler:
    """Run a heterogeneous set of episodes with dynamic solve batching.

    Args:
        episodes: the fleet; ``episode_id`` values must be unique (results
            come back in the order the episodes were given).
        batching: route compatible solves through batched GEMM dispatches.
            ``False`` forces the scalar path for every episode — bit-for-bit
            identical to sequential :meth:`HILLoop.run_scenario` calls.
        pool: the :class:`SolverPool` batched groups draw their solvers
            from and return them to after the run, so repeated campaigns
            reuse workspace arenas instead of reallocating them.  Defaults
            to the process-global pool; give a scheduler a fresh
            ``SolverPool()`` to keep its solvers out of that one.
    """

    def __init__(self, episodes: Sequence[FleetEpisode], batching: bool = True,
                 pool: Optional[SolverPool] = None) -> None:
        self.episodes = list(episodes)
        self.batching = batching
        self.pool = pool if pool is not None else solver_pool()
        self.stats = SchedulerStats()
        seen = set()
        for episode in self.episodes:
            if episode.episode_id in seen:
                raise ValueError("duplicate episode_id {}".format(
                    episode.episode_id))
            seen.add(episode.episode_id)

    # -- internals -------------------------------------------------------------
    def _build_groups(self):
        """Group the batch columns (episodes, in input order) by
        compatibility key, in first-seen order: the groups, and each
        column's group rank."""
        members: Dict[Tuple, List[int]] = {}
        for column, episode in enumerate(self.episodes):
            members.setdefault(episode.group_key, []).append(column)
        groups = []
        rank_of = np.zeros(len(self.episodes), dtype=np.int64)
        for rank, columns in enumerate(members.values()):
            rank_of[columns] = rank
            population = [self.episodes[column] for column in columns]
            if self.batching and len(population) > 1:
                groups.append(_BatchGroup(population, columns, self.pool))
            else:
                first = population[0]
                groups.append(_ScalarGroup(first.problem, first.settings,
                                           first.cache))
        return groups, rank_of

    # -- main entry point -------------------------------------------------------
    def run(self) -> List[EpisodeResult]:
        """Fly every episode to completion; results in input order."""
        if not self.episodes:
            return []
        # Built before any group acquires a pooled solver, so a physics
        # step the plant rejects leaks none.
        lockstep = EpisodeBatch([episode.runner for episode in self.episodes])
        groups, rank_of = self._build_groups()
        self.stats.episodes = len(self.episodes)
        self.stats.groups = len(groups)
        waiting = np.zeros(len(self.episodes), dtype=bool)
        try:
            waiting[lockstep.advance()] = True
            while waiting.any():
                # Event-driven dispatch: the group holding the earliest
                # waiting request goes first (first-seen group order breaks
                # time ties), and answers every request it holds.
                columns = np.flatnonzero(waiting)
                times = lockstep.sample_time[columns]
                rank = rank_of[columns[times == times.min()]].min()
                columns = columns[rank_of[columns] == rank]
                waiting[columns] = False
                controls, iterations = groups[rank].solve(
                    columns, lockstep.x0, lockstep.goal, self.stats)
                waiting[lockstep.advance(columns, controls, iterations)] = True
        finally:
            for group in groups:
                group.close()

        return [episode.runner.result for episode in self.episodes]
