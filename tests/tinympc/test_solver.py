"""Tests for the TinyMPC ADMM solver: convergence, constraints, warm starting."""

import numpy as np
import pytest

from repro.tinympc import (
    MPCProblem,
    SolverSettings,
    TinyMPCSolver,
    condensed_qp_solution,
    default_quadrotor_problem,
    lqr_tracking_solution,
    rollout,
)


def _double_integrator(horizon=15, u_limit=2.0, rho=1.0):
    dt = 0.1
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.5 * dt * dt], [dt]])
    return MPCProblem(A=A, B=B, Q=np.diag([10.0, 1.0]), R=np.array([[0.1]]),
                      rho=rho, horizon=horizon, u_min=-u_limit, u_max=u_limit)


@pytest.fixture(scope="module")
def quadrotor_problem():
    return default_quadrotor_problem()


class TestUnconstrainedAccuracy:
    def test_matches_lqr_when_constraints_inactive(self):
        # A long horizon is used so that TinyMPC's infinite-horizon terminal
        # cost and the finite-horizon LQR reference agree.
        problem = _double_integrator(horizon=50, u_limit=50.0)
        solver = TinyMPCSolver(problem, SolverSettings(
            max_iterations=500, abs_primal_tolerance=1e-8,
            abs_dual_tolerance=1e-8, warm_start=False))
        x0 = np.array([0.3, 0.0])
        goal = np.zeros(2)
        solution = solver.solve(x0, goal)
        reference = lqr_tracking_solution(problem, x0, goal)
        assert solution.converged
        np.testing.assert_allclose(solution.inputs, reference.inputs, atol=5e-3)
        np.testing.assert_allclose(solution.states, reference.states, atol=5e-3)

    def test_quadrotor_unconstrained_accuracy(self, quadrotor_problem):
        solver = TinyMPCSolver(quadrotor_problem, SolverSettings(
            max_iterations=500, abs_primal_tolerance=1e-7,
            abs_dual_tolerance=1e-7, warm_start=False))
        x0 = np.zeros(12)
        x0[0] = 0.02
        solution = solver.solve(x0, np.zeros(12))
        reference = lqr_tracking_solution(quadrotor_problem, x0, np.zeros(12))
        assert solution.converged
        np.testing.assert_allclose(solution.inputs, reference.inputs, atol=5e-3)


class TestConstrainedAccuracy:
    def test_respects_input_bounds(self):
        problem = _double_integrator(u_limit=0.5)
        solver = TinyMPCSolver(problem, SolverSettings(max_iterations=200))
        solution = solver.solve(np.array([2.0, 0.0]), np.zeros(2))
        assert np.all(solution.inputs <= problem.u_max + 1e-9)
        assert np.all(solution.inputs >= problem.u_min - 1e-9)

    def test_matches_condensed_qp_reference(self):
        problem = _double_integrator(horizon=8, u_limit=0.4)
        solver = TinyMPCSolver(problem, SolverSettings(
            max_iterations=800, abs_primal_tolerance=1e-7,
            abs_dual_tolerance=1e-7, warm_start=False))
        x0 = np.array([1.0, 0.0])
        goal = np.zeros(2)
        solution = solver.solve(x0, goal)
        reference = condensed_qp_solution(problem, x0, goal, iterations=6000)
        # Compare achieved objective values (trajectories may differ slightly
        # because TinyMPC optimizes the rho-augmented objective).
        def objective(inputs):
            states = rollout(problem, x0, inputs)
            cost = 0.0
            for i in range(problem.horizon - 1):
                cost += 0.5 * states[i] @ problem.Q @ states[i]
                cost += 0.5 * inputs[i] @ problem.R @ inputs[i]
            cost += 0.5 * states[-1] @ problem.Q @ states[-1]
            return cost
        assert objective(solution.inputs) <= 1.1 * objective(reference.inputs) + 1e-6

    def test_saturated_start_still_converges_toward_goal(self, quadrotor_problem):
        solver = TinyMPCSolver(quadrotor_problem, SolverSettings(max_iterations=50))
        x0 = np.zeros(12)
        x0[0:3] = [0.5, -0.5, 0.3]
        solution = solver.solve(x0, np.zeros(12))
        # The planned trajectory should move the position toward the origin.
        assert np.linalg.norm(solution.states[-1][0:3]) < np.linalg.norm(x0[0:3])


class TestWarmStarting:
    def test_warm_start_reduces_iterations(self, quadrotor_problem):
        settings = SolverSettings(max_iterations=100, warm_start=True,
                                  abs_primal_tolerance=1e-4, abs_dual_tolerance=1e-4)
        solver = TinyMPCSolver(quadrotor_problem, settings)
        x0 = np.zeros(12)
        x0[0] = 0.2
        first = solver.solve(x0, np.zeros(12))
        second = solver.solve(x0 * 0.98, np.zeros(12))
        assert not first.warm_started
        assert second.warm_started
        assert second.iterations <= first.iterations

    def test_reset_clears_warm_start(self, quadrotor_problem):
        solver = TinyMPCSolver(quadrotor_problem)
        solver.solve(np.zeros(12), np.zeros(12))
        solver.reset()
        solution = solver.solve(np.zeros(12), np.zeros(12))
        assert not solution.warm_started

    def test_solver_statistics_accumulate(self, quadrotor_problem):
        solver = TinyMPCSolver(quadrotor_problem, SolverSettings(max_iterations=5))
        for _ in range(3):
            solver.solve(np.zeros(12), np.zeros(12))
        assert solver.total_solves == 3
        assert solver.average_iterations > 0

    def test_reset_clears_dual_state(self, quadrotor_problem):
        """reset() must zero the dual/slack iterates, not just the flag."""
        solver = TinyMPCSolver(quadrotor_problem, SolverSettings(max_iterations=30))
        x0 = np.zeros(12)
        x0[0:3] = [0.4, -0.3, 0.2]
        solver.solve(x0, np.zeros(12))
        ws = solver.workspace
        assert np.any(ws.y) or np.any(ws.g)   # duals moved during the solve
        solver.reset()
        for name in ("v", "vnew", "z", "znew", "g", "y"):
            assert not np.any(getattr(ws, name)), name

    def test_warm_start_reuses_iterates_on_moving_reference(self, quadrotor_problem):
        """A slowly-moving reference keeps warm solves cheaper than cold ones."""
        settings = SolverSettings(max_iterations=100, warm_start=True,
                                  abs_primal_tolerance=1e-4,
                                  abs_dual_tolerance=1e-4)
        warm_solver = TinyMPCSolver(quadrotor_problem, settings)
        cold_solver = TinyMPCSolver(quadrotor_problem, SolverSettings(
            max_iterations=100, warm_start=False,
            abs_primal_tolerance=1e-4, abs_dual_tolerance=1e-4))
        x0 = np.zeros(12)
        x0[0] = 0.3
        goal = np.zeros(12)
        warm_iterations = []
        cold_iterations = []
        for step in range(5):
            goal[0] = 0.01 * step        # reference creeps along x
            warm_iterations.append(warm_solver.solve(x0, goal).iterations)
            cold_iterations.append(cold_solver.solve(x0, goal).iterations)
        # After the first (cold) solve, warm solves reuse the previous
        # iterates and need strictly fewer iterations than cold restarts.
        assert sum(warm_iterations[1:]) < sum(cold_iterations[1:])
        # The carried iterates really are reused: the cost-to-go gradient p
        # is non-zero going into the next warm solve (a cold start zeroes it).
        assert np.any(warm_solver.workspace.p)


class TestInputClipping:
    def test_workspace_matches_returned_inputs(self, quadrotor_problem):
        """After solve() the warm-start workspace carries exactly the clipped
        inputs the solution reports (the documented consistency contract)."""
        solver = TinyMPCSolver(quadrotor_problem, SolverSettings(max_iterations=5))
        x0 = np.zeros(12)
        x0[0:3] = [1.5, -1.5, 0.8]      # large offset forces saturation
        solution = solver.solve(x0, np.zeros(12))
        np.testing.assert_array_equal(solver.workspace.u, solution.inputs)
        assert np.all(solver.workspace.u <= quadrotor_problem.u_max + 1e-12)
        assert np.all(solver.workspace.u >= quadrotor_problem.u_min - 1e-12)


class TestSolutionObject:
    def test_control_is_first_input(self, quadrotor_problem):
        solver = TinyMPCSolver(quadrotor_problem, SolverSettings(max_iterations=10))
        solution = solver.solve(np.zeros(12), np.zeros(12))
        np.testing.assert_allclose(solution.control, solution.inputs[0])
        assert solution.iterations >= 1
        assert set(solution.residuals) == {
            "primal_residual_state", "dual_residual_state",
            "primal_residual_input", "dual_residual_input"}

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(max_iterations=0)
