"""Tests for the batched solver engine: equivalence, masking, warm starts."""

import numpy as np
import pytest

from repro.tinympc import (
    BatchTinyMPCSolver,
    BatchTinyMPCWorkspace,
    MPCProblem,
    SolverSettings,
    TinyMPCSolution,
    TinyMPCSolver,
    default_quadrotor_problem,
)


@pytest.fixture(scope="module")
def problem():
    return default_quadrotor_problem()


def _double_integrator(horizon=15, u_limit=2.0, rho=1.0):
    dt = 0.1
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.5 * dt * dt], [dt]])
    return MPCProblem(A=A, B=B, Q=np.diag([10.0, 1.0]), R=np.array([[0.1]]),
                      rho=rho, horizon=horizon, u_min=-u_limit, u_max=u_limit)


def _random_states(batch_size, state_dim, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((batch_size, state_dim))


class TestBatchWorkspace:
    def test_shapes_have_leading_batch_axis(self, problem):
        ws = BatchTinyMPCWorkspace(problem, batch=5)
        N, n, m = problem.horizon, problem.state_dim, problem.input_dim
        assert ws.x.shape == (5, N, n)
        assert ws.u.shape == (5, N - 1, m)
        assert ws.primal_residual_state.shape == (5,)

    def test_reference_broadcasting(self, problem):
        ws = BatchTinyMPCWorkspace(problem, batch=3)
        N, n = problem.horizon, problem.state_dim
        goal = np.arange(n, dtype=float)
        ws.set_reference(goal)                      # (n,) -> everyone
        assert np.array_equal(ws.Xref[2, N - 1], goal)
        per_instance = np.stack([goal, 2 * goal, 3 * goal])
        ws.set_reference(per_instance)              # (B, n) -> per instance
        assert np.array_equal(ws.Xref[1, 0], 2 * goal)
        trajectories = np.zeros((3, N, n))
        trajectories[0, 0, 0] = 7.0
        ws.set_reference(trajectories)              # (B, N, n) verbatim
        assert ws.Xref[0, 0, 0] == 7.0

    def test_invalid_shapes_rejected(self, problem):
        ws = BatchTinyMPCWorkspace(problem, batch=3)
        with pytest.raises(ValueError):
            ws.set_reference(np.zeros((4, problem.state_dim + 1)))
        with pytest.raises(ValueError):
            ws.set_initial_state(np.zeros((2, problem.state_dim)))
        with pytest.raises(ValueError):
            BatchTinyMPCWorkspace(problem, batch=0)
        with pytest.raises(ValueError):     # (N, n) is not a batched shape
            ws.set_reference(np.zeros((problem.horizon, problem.state_dim)))


class TestBatchSequentialEquivalence:
    """The acceptance bar: batched == sequential at B=64, rtol=1e-10."""

    def test_64_instance_batch_matches_sequential(self, problem):
        batch_size = 64
        x0s = _random_states(batch_size, problem.state_dim, seed=1)
        goals = np.zeros((batch_size, problem.state_dim))
        goals[:, 0:3] = _random_states(batch_size, 3, seed=2, scale=0.2)
        settings = SolverSettings(max_iterations=50)

        sequential = [TinyMPCSolver(problem, SolverSettings(max_iterations=50))
                      for _ in range(batch_size)]
        solutions = [sequential[b].solve(x0s[b], Xref=goals[b])
                     for b in range(batch_size)]
        batch = BatchTinyMPCSolver(problem, batch_size, settings)
        batched = batch.solve(x0s, Xref=goals)

        assert np.array_equal(batched.iterations,
                              [s.iterations for s in solutions])
        assert np.array_equal(batched.converged,
                              [s.converged for s in solutions])
        np.testing.assert_allclose(
            batched.states, np.stack([s.states for s in solutions]),
            rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(
            batched.inputs, np.stack([s.inputs for s in solutions]),
            rtol=1e-10, atol=1e-13)

    def test_per_instance_goals_when_batch_equals_horizon(self, problem):
        """``(B, n)`` goals are ``B`` goal states even when ``B == N``."""
        batch_size = problem.horizon
        x0s = _random_states(batch_size, problem.state_dim, seed=5)
        goals = np.zeros((batch_size, problem.state_dim))
        goals[:, 0:3] = _random_states(batch_size, 3, seed=6, scale=0.2)
        sequential = [TinyMPCSolver(problem, SolverSettings(max_iterations=50))
                      for _ in range(batch_size)]
        solutions = [sequential[b].solve(x0s[b], Xref=goals[b])
                     for b in range(batch_size)]
        batched = BatchTinyMPCSolver(
            problem, batch_size, SolverSettings(max_iterations=50)).solve(
                x0s, Xref=goals)
        assert np.array_equal(batched.iterations,
                              [s.iterations for s in solutions])
        np.testing.assert_allclose(
            batched.inputs, np.stack([s.inputs for s in solutions]),
            rtol=1e-10, atol=1e-13)

    def test_warm_started_sequence_matches_sequential(self, problem):
        """Three solves on a slowly-moving state: warm-start state carried in
        the batch workspace must match each scalar solver's."""
        batch_size = 16
        x0s = _random_states(batch_size, problem.state_dim, seed=3)
        goal = np.zeros(problem.state_dim)
        sequential = [TinyMPCSolver(problem, SolverSettings(max_iterations=40))
                      for _ in range(batch_size)]
        batch = BatchTinyMPCSolver(problem, batch_size,
                                   SolverSettings(max_iterations=40))
        for step in range(3):
            states = x0s * (0.9 ** step)
            solutions = [sequential[b].solve(states[b], Xref=goal)
                         for b in range(batch_size)]
            batched = batch.solve(states, Xref=goal)
            assert np.array_equal(batched.iterations,
                                  [s.iterations for s in solutions])
            assert np.array_equal(batched.warm_started,
                                  [s.warm_started for s in solutions])
            np.testing.assert_allclose(
                batched.inputs, np.stack([s.inputs for s in solutions]),
                rtol=1e-10, atol=1e-13)

    def test_batch_of_one_matches_scalar_solver(self):
        problem = _double_integrator()
        scalar = TinyMPCSolver(problem, SolverSettings(max_iterations=100))
        batch = BatchTinyMPCSolver(problem, 1, SolverSettings(max_iterations=100))
        x0 = np.array([1.0, 0.0])
        scalar_solution = scalar.solve(x0, Xref=np.zeros(2))
        batch_solution = batch.solve(x0[None, :], Xref=np.zeros(2))
        assert batch_solution.iterations[0] == scalar_solution.iterations
        np.testing.assert_allclose(batch_solution.states[0],
                                   scalar_solution.states,
                                   rtol=1e-10, atol=1e-13)

    def test_constrained_batch_respects_bounds(self):
        problem = _double_integrator(u_limit=0.5)
        batch = BatchTinyMPCSolver(problem, 8, SolverSettings(max_iterations=200))
        x0s = np.zeros((8, 2))
        x0s[:, 0] = np.linspace(-2.0, 2.0, 8)
        solution = batch.solve(x0s, Xref=np.zeros(2))
        assert np.all(solution.inputs <= problem.u_max + 1e-9)
        assert np.all(solution.inputs >= problem.u_min - 1e-9)
        # Workspace carries the same clipped inputs the solution reports.
        np.testing.assert_array_equal(batch.workspace.u, solution.inputs)


class TestActiveMask:
    def test_inactive_instances_left_untouched(self, problem):
        batch_size = 8
        batch = BatchTinyMPCSolver(problem, batch_size,
                                   SolverSettings(max_iterations=20))
        x0s = _random_states(batch_size, problem.state_dim, seed=4)
        batch.solve(x0s, Xref=np.zeros(problem.state_dim))
        before = batch.workspace.snapshot()
        residuals_before = {name: np.array(values) for name, values
                            in batch.workspace.residuals().items()}

        mask = np.zeros(batch_size, dtype=bool)
        mask[::2] = True
        solution = batch.solve(2.0 * x0s, Xref=np.zeros(problem.state_dim),
                               active=mask)
        assert np.array_equal(solution.active, mask)
        assert np.all(solution.iterations[~mask] == 0)
        assert np.all(solution.iterations[mask] > 0)
        for index in np.flatnonzero(~mask):
            for name, array in before.items():
                assert np.array_equal(
                    getattr(batch.workspace, name)[index], array[index]), name
            for name, values in residuals_before.items():
                assert batch.workspace.residuals()[name][index] == values[index]

    def test_masked_solve_matches_full_solve_on_active_rows(self, problem):
        """A masked solve must compute exactly what a dense solve would."""
        batch_size = 6
        x0s = _random_states(batch_size, problem.state_dim, seed=5)
        goal = np.zeros(problem.state_dim)
        dense = BatchTinyMPCSolver(problem, batch_size,
                                   SolverSettings(max_iterations=20))
        masked = BatchTinyMPCSolver(problem, batch_size,
                                    SolverSettings(max_iterations=20))
        dense_solution = dense.solve(x0s, Xref=goal)
        mask = np.array([True, False] * 3)
        masked_solution = masked.solve(x0s, Xref=goal, active=mask)
        np.testing.assert_allclose(masked_solution.inputs[mask],
                                   dense_solution.inputs[mask],
                                   rtol=1e-12, atol=1e-14)
        assert np.array_equal(masked_solution.iterations[mask],
                              dense_solution.iterations[mask])

    def test_mask_validation(self, problem):
        batch = BatchTinyMPCSolver(problem, 4)
        x0s = np.zeros((4, problem.state_dim))
        with pytest.raises(ValueError):
            batch.solve(x0s, active=np.zeros(3, dtype=bool))
        with pytest.raises(ValueError):
            batch.solve(x0s, active=np.zeros(4, dtype=bool))


class TestBatchWarmStart:
    def test_reset_clears_every_instance(self, problem):
        batch = BatchTinyMPCSolver(problem, 4, SolverSettings(max_iterations=10))
        x0s = _random_states(4, problem.state_dim, seed=6)
        first = batch.solve(x0s, Xref=np.zeros(problem.state_dim))
        assert not first.warm_started.any()
        second = batch.solve(x0s, Xref=np.zeros(problem.state_dim))
        assert second.warm_started.all()
        batch.reset()
        assert not np.any(batch.workspace.y)
        assert not np.any(batch.workspace.g)
        third = batch.solve(x0s, Xref=np.zeros(problem.state_dim))
        assert not third.warm_started.any()

    def test_statistics_accumulate_per_instance(self, problem):
        batch = BatchTinyMPCSolver(problem, 4, SolverSettings(max_iterations=5))
        x0s = _random_states(4, problem.state_dim, seed=7)
        batch.solve(x0s)
        mask = np.array([True, True, False, False])
        batch.solve(x0s, active=mask)
        assert batch.total_batch_solves == 2
        assert batch.total_instance_solves == 6
        assert batch.average_iterations > 0


class TestBatchSolutionObject:
    def test_instance_extraction(self, problem):
        batch = BatchTinyMPCSolver(problem, 3, SolverSettings(max_iterations=8))
        x0s = _random_states(3, problem.state_dim, seed=8)
        solution = batch.solve(x0s, Xref=np.zeros(problem.state_dim))
        assert len(solution) == 3
        instances = list(solution)
        assert all(isinstance(s, TinyMPCSolution) for s in instances)
        for index, instance in enumerate(instances):
            np.testing.assert_array_equal(instance.states,
                                          solution.states[index])
            assert instance.iterations == solution.iterations[index]
            np.testing.assert_array_equal(instance.control,
                                          solution.control[index])

    def test_invalid_batch_size_rejected(self, problem):
        with pytest.raises(ValueError):
            BatchTinyMPCSolver(problem, 0)
