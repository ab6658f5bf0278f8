"""Tests for the solver workspace pool and preallocated slot export."""

import numpy as np
import pytest

from repro.drone import generate_scenario
from repro.fleet import (
    CampaignSpec,
    FleetScheduler,
    SolverPool,
    run_campaign,
    solver_pool,
)
from repro.fleet.campaign import EpisodeFactory
from repro.fleet.scheduler import MAX_IDLE_PER_KEY
from repro.tinympc import (
    BatchTinyMPCSolver,
    SolverSettings,
    default_quadrotor_problem,
)
from repro.tinympc.workspace import WORKSPACE_BUFFERS


@pytest.fixture(scope="module")
def problem():
    return default_quadrotor_problem()


class TestSolverPool:
    def test_acquire_release_reuses_instance(self, problem):
        pool = SolverPool()
        settings = SolverSettings(max_iterations=10)
        first = pool.acquire(problem, settings, 8)
        pool.release(first)
        second = pool.acquire(problem, settings, 8)
        assert second is first
        assert pool.acquires == 2 and pool.hits == 1 and pool.idle_count == 0

    def test_idle_retention_is_bounded(self, problem):
        pool = SolverPool()
        settings = SolverSettings(max_iterations=10)
        solvers = [pool.acquire(problem, settings, 4)
                   for _ in range(MAX_IDLE_PER_KEY + 1)]
        for solver in solvers:
            pool.release(solver)
        assert pool.idle_count == MAX_IDLE_PER_KEY

    def test_parked_solvers_are_reused_up_to_the_bound(self, problem):
        pool = SolverPool()
        settings = SolverSettings(max_iterations=10)
        solvers = [pool.acquire(problem, settings, 4)
                   for _ in range(MAX_IDLE_PER_KEY + 1)]
        for solver in solvers:
            pool.release(solver)
        reacquired = [pool.acquire(problem, settings, 4)
                      for _ in range(MAX_IDLE_PER_KEY + 1)]
        assert pool.hits == MAX_IDLE_PER_KEY
        assert pool.idle_count == 0
        parked = {id(solver) for solver in solvers[:MAX_IDLE_PER_KEY]}
        assert {id(solver) for solver in reacquired[:MAX_IDLE_PER_KEY]} == parked
        assert id(reacquired[-1]) not in {id(solver) for solver in solvers}

    def test_key_separates_width_and_settings(self, problem):
        pool = SolverPool()
        settings = SolverSettings(max_iterations=10)
        solver = pool.acquire(problem, settings, 8)
        pool.release(solver)
        other_width = pool.acquire(problem, settings, 16)
        assert other_width is not solver
        other_settings = pool.acquire(
            problem, SolverSettings(max_iterations=20), 8)
        assert other_settings is not solver

    def test_released_solver_behaves_like_fresh(self, problem):
        """Pooled reuse must be numerically invisible: a reused solver's
        solve matches a brand-new solver's bit for bit."""
        pool = SolverPool()
        settings = SolverSettings(max_iterations=15)
        x0s = 0.2 * np.random.default_rng(5).standard_normal(
            (4, problem.state_dim))
        goal = np.zeros(problem.state_dim)

        dirty = pool.acquire(problem, settings, 4)
        dirty.solve(x0s, Xref=goal)          # leave warm-start state behind
        pool.release(dirty)
        reused = pool.acquire(problem, settings, 4)
        assert reused is dirty
        assert not reused._warm.any()
        for name in WORKSPACE_BUFFERS:
            assert not np.any(getattr(reused.workspace, name)), name

        fresh = BatchTinyMPCSolver(problem, 4, settings)
        reused_solution = reused.solve(x0s, Xref=goal)
        fresh_solution = fresh.solve(x0s, Xref=goal)
        np.testing.assert_array_equal(reused_solution.states,
                                      fresh_solution.states)
        np.testing.assert_array_equal(reused_solution.inputs,
                                      fresh_solution.inputs)
        np.testing.assert_array_equal(reused_solution.iterations,
                                      fresh_solution.iterations)


class TestExportSlotReuse:
    def test_export_into_previous_state_reuses_arrays(self, problem):
        solver = BatchTinyMPCSolver(problem, 2, SolverSettings(max_iterations=5))
        solver.solve(np.zeros((2, problem.state_dim)),
                     Xref=np.zeros(problem.state_dim))
        state = solver.export_slot(0)
        arrays_before = {name: id(state[name]) for name in WORKSPACE_BUFFERS}
        solver.solve(np.full((2, problem.state_dim), 0.1),
                     Xref=np.zeros(problem.state_dim))
        reexported = solver.export_slot(0, out=state)
        assert reexported is state
        for name in WORKSPACE_BUFFERS:
            assert id(reexported[name]) == arrays_before[name], name
            np.testing.assert_array_equal(reexported[name],
                                          getattr(solver.workspace, name)[0])

    def test_roundtrip_matches_fresh_export(self, problem):
        solver = BatchTinyMPCSolver(problem, 2, SolverSettings(max_iterations=5))
        solver.solve(np.full((2, problem.state_dim), 0.05),
                     Xref=np.zeros(problem.state_dim))
        fresh = solver.export_slot(1)
        recycled = solver.export_slot(1, out=solver.export_slot(1))
        for name in WORKSPACE_BUFFERS:
            np.testing.assert_array_equal(fresh[name], recycled[name])
        assert fresh["_warm"] == recycled["_warm"]


class TestSchedulerPooling:
    def _episodes(self, count=4):
        factory = EpisodeFactory()
        spec = CampaignSpec(name="pool", difficulties=("easy",),
                            seeds=tuple(range(count)))
        return [factory.build(episode, index)
                for index, episode in enumerate(spec.expand())]

    def test_scheduler_returns_solver_to_pool(self):
        pool = SolverPool()
        scheduler = FleetScheduler(self._episodes(), pool=pool)
        scheduler.run()
        assert pool.acquires == 1
        assert pool.idle_count == 1

    def test_second_run_hits_the_pool_and_matches(self):
        pool = SolverPool()
        first = FleetScheduler(self._episodes(), pool=pool).run()
        second = FleetScheduler(self._episodes(), pool=pool).run()
        assert pool.hits == 1
        for a, b in zip(first, second):
            assert a.success == b.success
            assert a.solve_iterations == b.solve_iterations
            assert a.flight_time_s == b.flight_time_s

    def test_global_pool_reused_across_campaigns(self):
        spec = CampaignSpec(name="pool-global", difficulties=("easy",),
                            seeds=(0, 1, 2))
        pool = solver_pool()
        baseline_hits = pool.hits
        first = run_campaign(spec)
        second = run_campaign(spec)
        assert pool.hits > baseline_hits
        for a, b in zip(first.results, second.results):
            assert a.success == b.success
            assert a.solve_iterations == b.solve_iterations
