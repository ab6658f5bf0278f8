"""Event-driven fleet scheduler: dynamic batching across heterogeneous episodes.

The lockstep batched runner of PR 1 could only batch episodes that shared
*one* :class:`~repro.hil.loop.HILConfig` — any mixed sweep (different clock
frequencies, drone variants, control rates, or solver settings) fell back
to sequential scalar solves.  This scheduler removes that restriction:

* every HIL episode of the run flies as one column of a single
  :class:`~repro.hil.episode.EpisodeBatch`, which advances episodes in
  lockstep until each yields a :class:`~repro.hil.episode.SolveRequest`
  into a virtual-time queue (solver-free episode kinds, such as design
  points, run to completion up front);
* a batcher groups pending requests by *solver compatibility* — identical
  MPC problem content (:func:`~repro.tinympc.problem.problem_hash`) and
  identical :class:`~repro.tinympc.solver.SolverSettings` — and dispatches
  each group as one :class:`~repro.tinympc.batch.BatchTinyMPCSolver` call;
* each episode's warm start stays resident in the batch slot it last
  solved in; ``export_slot`` / ``import_slot`` move it only when a slot
  changes owner, so episodes keep their warm starts even when they share
  slots across dispatches.

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
(``tests/fleet/test_scheduler.py``).  Batch width per group is fixed at
construction, so repeated runs of one campaign are bit-for-bit identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hil.episode import EpisodeBatch, EpisodeResult, EpisodeRunner, SolveRequest
from ..tinympc import (
    BatchTinyMPCSolver,
    MPCProblem,
    SolverSettings,
    TinyMPCSolver,
    problem_hash,
)
from ..tinympc.cache import LQRCache, compute_cache

__all__ = ["FleetEpisode", "FleetScheduler", "SchedulerStats", "SolverPool",
           "SOLVERLESS_KEY", "compatibility_key", "solver_pool"]


def compatibility_key(problem: MPCProblem, settings: SolverSettings) -> Tuple:
    """Two episodes may share one batched solver iff their keys are equal.

    Compatibility requires identical problem *content* (dynamics, costs,
    bounds, horizon — i.e. identical workspace shapes and solve numerics)
    and identical termination settings, including the compute dtype (a
    float32 episode and a float64 episode must never share a workspace).
    Clock frequency, UART latency, and drone variant names do **not**
    appear: frequency only scales latency outside the solver, and two
    variants with different parameters already hash to different problems.
    """
    return (problem_hash(problem), settings.max_iterations,
            settings.abs_primal_tolerance, settings.abs_dual_tolerance,
            settings.check_termination_every, settings.warm_start,
            getattr(settings, "dtype", "float64"))


#: Group key shared by episodes that never request an MPC solve.  They are
#: parked in a no-op :class:`_NullGroup` so the scheduler's bookkeeping —
#: release when the episode ends, close at run end — works unchanged.
SOLVERLESS_KEY: Tuple = ("solverless",)


@dataclass
class FleetEpisode:
    """One schedulable episode: a runner plus its solver identity.

    The runner is either an :class:`EpisodeRunner` — a waypoint scenario
    or a disturbance-recovery episode, flown in the scheduler's lockstep
    batch — or a solver-free workload such as a design-point compile
    (:mod:`repro.fleet.design_point`), whose ``run()`` generator finishes
    without yielding.  Solver-free episodes leave ``problem``/``settings``
    as ``None`` and fall into the shared :data:`SOLVERLESS_KEY` group.
    """

    episode_id: int
    runner: EpisodeRunner
    problem: Optional[MPCProblem] = None
    settings: Optional[SolverSettings] = None
    cache: Optional[LQRCache] = None

    @property
    def group_key(self) -> Tuple:
        if self.problem is None:
            return SOLVERLESS_KEY
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
    batch_widths: List[int] = field(default_factory=list)

    @property
    def mean_batch_width(self) -> float:
        if not self.batch_widths:
            return 0.0
        return float(np.mean(self.batch_widths))

    @property
    def max_batch_width(self) -> int:
        return max(self.batch_widths) if self.batch_widths else 0

    def merge(self, other: "SchedulerStats") -> "SchedulerStats":
        self.episodes += other.episodes
        self.groups += other.groups
        self.dispatches += other.dispatches
        self.solves += other.solves
        self.batched_solves += other.batched_solves
        self.scalar_solves += other.scalar_solves
        self.batch_widths.extend(other.batch_widths)
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


class SolverPool:
    """Process-local pool of batched solvers keyed by problem/settings/width.

    A :class:`~repro.tinympc.batch.BatchTinyMPCSolver` owns sizable arenas:
    the stacked workspace, its kernel scratch (:class:`~repro.tinympc
    .workspace.SolveScratch` — prebuilt views, cursors, full-shape bounds),
    and the freeze/restore store.  Campaign runs, repeated benchmarks, and
    back-to-back scheduler invocations used to rebuild all of it per run;
    the pool parks released solvers keyed by
    ``(problem_hash, settings..., width)`` and hands them back reset, so a
    re-dispatched group's warmup cost is one ``reset()`` memset.

    Numerically invisible: a pooled solver is released only after
    ``reset()`` (zeroed workspace, cleared warm-start flags), the key pins
    the exact problem content and termination settings, and
    ``compute_cache`` is deterministic — so a reused solver is bit-for-bit
    a fresh one.

    Retention is bounded: at most ``max_idle_per_key`` solvers are parked
    per key (excess releases are simply dropped for the GC), so a
    long-lived process running many differently-shaped campaigns cannot
    accumulate arenas without limit.  ``clear()`` empties the pool
    outright.
    """

    def __init__(self, max_idle_per_key: int = 4) -> None:
        if max_idle_per_key < 1:
            raise ValueError("max_idle_per_key must be at least 1")
        self._idle: Dict[Tuple, List[BatchTinyMPCSolver]] = {}
        self.max_idle_per_key = max_idle_per_key
        self.acquires = 0
        self.hits = 0

    @staticmethod
    def _key(problem: MPCProblem, settings: SolverSettings,
             capacity: int) -> Tuple:
        # The active kernel backend joins the key: pooled workspaces carry
        # backend-specific binding state (cffi pointer structs, jit argument
        # tuples), so a solver parked under one backend must not be handed
        # out under another even though the solve numerics would recover.
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

        Beyond ``max_idle_per_key`` parked solvers for the same key, the
        release is a drop: the solver is simply left to the garbage
        collector.
        """
        key = self._key(solver.problem, solver.settings, solver.batch_size)
        stack = self._idle.setdefault(key, [])
        if len(stack) >= self.max_idle_per_key:
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


class _NullGroup:
    """Group for episodes that never yield a solve request.

    Solver-free episode kinds (design-point compiles) do all their work
    before their generator's first ``yield``, which never comes; this group
    exists only so ``release``/``close`` have a target.  A solve call is a
    programming error — an episode with no declared problem asked for an
    MPC solve.
    """

    def solve(self, requests: Sequence[SolveRequest], stats: SchedulerStats
              ) -> Dict[int, Tuple[np.ndarray, int]]:
        raise RuntimeError(
            "episode(s) {} yielded a solve request but declared no MPC "
            "problem".format(sorted({r.episode for r in requests})))

    def release(self, episode_id: int) -> None:
        pass

    def close(self) -> None:
        pass


class _ScalarGroup:
    """Solver group backed by per-episode scalar solvers (the exact path)."""

    def __init__(self, problem: MPCProblem, settings: SolverSettings,
                 cache: Optional[LQRCache]) -> None:
        self.problem = problem
        self.settings = settings
        self.cache = cache or compute_cache(problem)
        self._solvers: Dict[int, TinyMPCSolver] = {}

    def solve(self, requests: Sequence[SolveRequest], stats: SchedulerStats
              ) -> Dict[int, Tuple[np.ndarray, int]]:
        responses = {}
        for request in requests:
            solver = self._solvers.get(request.episode)
            if solver is None:
                # A fresh solver is exactly a reset one — the same state
                # HILLoop.run_scenario starts each episode from.
                solver = TinyMPCSolver(self.problem, self.settings, self.cache)
                self._solvers[request.episode] = solver
            solution = solver.solve(request.x0, Xref=request.goal)
            responses[request.episode] = (solution.control, solution.iterations)
            stats.dispatches += 1
            stats.scalar_solves += 1
            stats.batch_widths.append(1)
        stats.solves += len(requests)
        return responses

    def release(self, episode_id: int) -> None:
        self._solvers.pop(episode_id, None)

    def close(self) -> None:
        """Scalar solvers are per-episode and cheap; nothing is pooled."""


class _BatchGroup:
    """Solver group backed by one fixed-width batched solver.

    Each dispatch packs its requests into slots in order, solves the batch
    with the leading slots active, and reads the answers back.  An
    episode's warm start stays resident in the slot it last solved in
    (inactive slots are left exactly as their last solve finished), so a
    slot's state moves only when the slot changes owner: the previous
    owner's is exported to its carried arrays (``export_slot``) and the
    newcomer's imported (``import_slot``).  Episodes outnumbering the batch
    capacity therefore still share slots, and the raw-row round trip keeps
    slot sharing numerically invisible.
    """

    def __init__(self, problem: MPCProblem, settings: SolverSettings,
                 cache: Optional[LQRCache], capacity: int,
                 pool: Optional[SolverPool] = None) -> None:
        self.problem = problem
        self.settings = settings
        self.capacity = capacity
        self.pool = pool
        if pool is not None:
            self.solver = pool.acquire(problem, settings, capacity, cache)
        else:
            self.solver = BatchTinyMPCSolver(problem, capacity, settings,
                                             cache or compute_cache(problem))
        # Warm starts of episodes not resident in a slot.
        self._carried: Dict[int, Dict[str, np.ndarray]] = {}
        # Slot -> the live episode whose warm start it holds, and back.
        self._owner: List[Optional[int]] = [None] * capacity
        self._slot: Dict[int, int] = {}
        self._x0 = np.zeros((capacity, problem.state_dim))
        self._goal = np.zeros((capacity, problem.state_dim))
        self._active = np.zeros(capacity, dtype=bool)

    def _seat(self, slot: int, episode: int) -> None:
        """Make ``slot`` hold ``episode``'s warm start."""
        owner = self._owner[slot]
        if owner == episode:
            return
        solver = self.solver
        home = self._slot.pop(episode, None)
        if home is not None:
            self._carried[episode] = solver.export_slot(
                home, out=self._carried.get(episode))
            self._owner[home] = None
        if owner is not None:
            self._carried[owner] = solver.export_slot(
                slot, out=self._carried.get(owner))
            del self._slot[owner]
        solver.import_slot(slot, self._carried.get(episode))
        self._owner[slot] = episode
        self._slot[episode] = slot

    def solve(self, requests: Sequence[SolveRequest], stats: SchedulerStats
              ) -> Dict[int, Tuple[np.ndarray, int]]:
        responses = {}
        for start in range(0, len(requests), self.capacity):
            chunk = requests[start:start + self.capacity]
            width = len(chunk)
            for slot, request in enumerate(chunk):
                self._seat(slot, request.episode)
                self._x0[slot] = request.x0
                self._goal[slot] = request.goal
            self._active[:] = False
            self._active[:width] = True
            solution = self.solver.solve(self._x0, Xref=self._goal,
                                         active=self._active)
            for slot, request in enumerate(chunk):
                responses[request.episode] = (
                    solution.inputs[slot, 0].copy(),
                    int(solution.iterations[slot]))
            stats.dispatches += 1
            stats.batched_solves += width
            stats.batch_widths.append(width)
        stats.solves += len(requests)
        return responses

    def release(self, episode_id: int) -> None:
        self._carried.pop(episode_id, None)
        slot = self._slot.pop(episode_id, None)
        if slot is not None:
            self._owner[slot] = None

    def close(self) -> None:
        """Return the solver to the pool (the group must not solve again)."""
        if self.pool is not None:
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
        max_batch: cap on batch width (slots); groups larger than this share
            slots across dispatches.  ``None`` sizes each group's solver to
            its population for maximal throughput.
        pool: the :class:`SolverPool` batched groups draw their solvers
            from and return them to after the run, so repeated campaigns
            reuse workspace arenas instead of reallocating them.  Defaults
            to the process-global pool; pass ``None``-like behavior by
            giving each scheduler its own fresh ``SolverPool()``.
    """

    def __init__(self, episodes: Sequence[FleetEpisode], batching: bool = True,
                 max_batch: Optional[int] = None,
                 pool: Optional[SolverPool] = None) -> None:
        self.episodes = list(episodes)
        self.batching = batching
        if max_batch is not None and max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.max_batch = max_batch
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
        """Group episodes by compatibility key, preserving first-seen order."""
        members: Dict[Tuple, List[FleetEpisode]] = {}
        order: List[Tuple] = []
        for episode in self.episodes:
            key = episode.group_key
            if key not in members:
                members[key] = []
                order.append(key)
            members[key].append(episode)
        groups = {}
        for key in order:
            population = members[key]
            first = population[0]
            if first.problem is None:
                groups[key] = _NullGroup()
            elif not self.batching or len(population) == 1:
                groups[key] = _ScalarGroup(first.problem, first.settings,
                                           first.cache)
            else:
                capacity = len(population)
                if self.max_batch is not None:
                    capacity = min(capacity, self.max_batch)
                groups[key] = _BatchGroup(first.problem, first.settings,
                                          first.cache, capacity, self.pool)
        return groups, order

    # -- main entry point -------------------------------------------------------
    def run(self) -> List[EpisodeResult]:
        """Fly every episode to completion; results in input order."""
        if not self.episodes:
            return []
        hil = [episode for episode in self.episodes
               if isinstance(episode.runner, EpisodeRunner)]
        # Built before any group acquires a pooled solver, so a physics
        # step the plant rejects leaks none.
        lockstep = EpisodeBatch([episode.runner for episode in hil])
        groups, group_order = self._build_groups()
        group_rank = {key: rank for rank, key in enumerate(group_order)}
        keys = {episode.episode_id: episode.group_key
                for episode in self.episodes}
        self.stats.episodes = len(self.episodes)
        self.stats.groups = len(groups)
        pending: Dict[Tuple, List[SolveRequest]] = {}

        def flown(advanced, requests) -> None:
            """Queue the lockstep batch's requests; release who finished."""
            asked = set()
            for request in requests:
                pending.setdefault(keys[request.episode], []).append(request)
                asked.add(request.episode)
            for episode_id in advanced:
                if episode_id not in asked:
                    groups[keys[episode_id]].release(episode_id)

        try:
            for episode in self.episodes:
                if not isinstance(episode.runner, EpisodeRunner):
                    for _ in episode.runner.run():
                        raise RuntimeError(
                            "solver-free episode {} asked for a solve".format(
                                episode.episode_id))
                    groups[keys[episode.episode_id]].release(
                        episode.episode_id)
            flown([episode.episode_id for episode in hil], lockstep.advance())

            while pending:
                # Event-driven dispatch: the group holding the earliest
                # pending request goes first (first-seen group order breaks
                # time ties).
                key = min(pending, key=lambda k: (
                    min(r.time for r in pending[k]), group_rank[k]))
                requests = pending.pop(key)
                requests.sort(key=lambda r: (r.time, r.episode))
                responses = groups[key].solve(requests, self.stats)
                flown(responses, lockstep.advance(responses))
        finally:
            for group in groups.values():
                group.close()

        return [episode.runner.result for episode in self.episodes]
