"""Bit-for-bit contracts of the zero-allocation solve hot path.

The kernel rewrite (scratch arenas, ``out=`` stores, pre-negated operands,
runtime-verified fusion) claims to preserve the pre-refactor floating-point
operation order exactly.  These tests hold it to ``==`` — no tolerances —
against the retained reference implementations in
:mod:`repro.tinympc.naive`, across full solves, warm-start sequences, and
both workspace layouts, plus symmetric scalar / batch residual storage.
"""

import numpy as np
import pytest

from repro.tinympc import (
    BatchTinyMPCSolver,
    BatchTinyMPCWorkspace,
    SolverSettings,
    TinyMPCSolver,
    TinyMPCWorkspace,
    compute_cache,
    default_quadrotor_problem,
    use_naive_kernels,
)
from repro.tinympc.kernels import compute_residuals, update_residuals
from repro.tinympc.workspace import RESIDUAL_FIELDS, WORKSPACE_BUFFERS


@pytest.fixture(scope="module")
def problem():
    return default_quadrotor_problem()


@pytest.fixture(scope="module")
def cache(problem):
    return compute_cache(problem)


def _random_states(count, dim, seed, scale=0.2):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((count, dim))


def _randomized(ws, seed):
    rng = np.random.default_rng(seed)
    for name in WORKSPACE_BUFFERS:
        array = getattr(ws, name)
        array[...] = 0.05 * rng.standard_normal(array.shape)
    return ws


class TestExactSolveEquivalence:
    """Refactored solve == pre-refactor reference trajectories, exactly."""

    def test_scalar_warm_start_sequence_exact(self, problem):
        fast = TinyMPCSolver(problem, SolverSettings(max_iterations=30))
        reference = TinyMPCSolver(problem, SolverSettings(max_iterations=30))
        states = _random_states(5, problem.state_dim, seed=1)
        goal = np.zeros(problem.state_dim)
        for x0 in states:
            fast_solution = fast.solve(x0, Xref=goal)
            with use_naive_kernels():
                reference_solution = reference.solve(x0, Xref=goal)
            assert fast_solution.iterations == reference_solution.iterations
            assert fast_solution.converged == reference_solution.converged
            np.testing.assert_array_equal(fast_solution.states,
                                          reference_solution.states)
            np.testing.assert_array_equal(fast_solution.inputs,
                                          reference_solution.inputs)
            assert fast_solution.residuals == reference_solution.residuals

    def test_batch_warm_start_sequence_exact(self, problem):
        batch_size = 12
        fast = BatchTinyMPCSolver(problem, batch_size,
                                  SolverSettings(max_iterations=30))
        reference = BatchTinyMPCSolver(problem, batch_size,
                                       SolverSettings(max_iterations=30))
        goal = np.zeros(problem.state_dim)
        for step in range(4):
            x0s = _random_states(batch_size, problem.state_dim, seed=10 + step)
            fast_solution = fast.solve(x0s, Xref=goal)
            with use_naive_kernels():
                reference_solution = reference.solve(x0s, Xref=goal)
            np.testing.assert_array_equal(fast_solution.iterations,
                                          reference_solution.iterations)
            np.testing.assert_array_equal(fast_solution.states,
                                          reference_solution.states)
            np.testing.assert_array_equal(fast_solution.inputs,
                                          reference_solution.inputs)
            for name in RESIDUAL_FIELDS:
                np.testing.assert_array_equal(
                    fast_solution.residuals[name],
                    reference_solution.residuals[name], err_msg=name)

    def test_masked_batch_solve_exact(self, problem):
        batch_size = 6
        fast = BatchTinyMPCSolver(problem, batch_size,
                                  SolverSettings(max_iterations=20))
        reference = BatchTinyMPCSolver(problem, batch_size,
                                       SolverSettings(max_iterations=20))
        x0s = _random_states(batch_size, problem.state_dim, seed=3)
        goal = np.zeros(problem.state_dim)
        fast.solve(x0s, Xref=goal)
        with use_naive_kernels():
            reference.solve(x0s, Xref=goal)
        mask = np.array([True, False, True, False, True, False])
        fast_solution = fast.solve(1.5 * x0s, Xref=goal, active=mask)
        with use_naive_kernels():
            reference_solution = reference.solve(1.5 * x0s, Xref=goal,
                                                 active=mask)
        np.testing.assert_array_equal(fast_solution.inputs,
                                      reference_solution.inputs)
        np.testing.assert_array_equal(fast_solution.iterations,
                                      reference_solution.iterations)


class TestResidualStorageSymmetry:
    """Scalar and batched residuals share one scratch-based reduction."""

    def test_scalar_fields_are_zero_d_arrays(self, problem, cache):
        ws = _randomized(TinyMPCWorkspace(problem), 7)
        update_residuals(ws)
        for name in RESIDUAL_FIELDS:
            value = getattr(ws, name)
            assert isinstance(value, np.ndarray) and value.shape == (), name

    def test_batch_fields_are_b_arrays(self, problem, cache):
        ws = _randomized(BatchTinyMPCWorkspace(problem, batch=3), 7)
        update_residuals(ws)
        for name in RESIDUAL_FIELDS:
            value = getattr(ws, name)
            assert isinstance(value, np.ndarray) and value.shape == (3,), name

    def test_scalar_and_batch_of_one_residuals_agree_exactly(self, problem,
                                                             cache):
        """The satellite regression: identical content -> identical bits."""
        scalar = _randomized(TinyMPCWorkspace(problem), 21)
        batched = BatchTinyMPCWorkspace(problem, batch=1)
        for name in WORKSPACE_BUFFERS:
            getattr(batched, name)[0] = getattr(scalar, name)
        scalar_residuals = compute_residuals(scalar)
        batched_residuals = compute_residuals(batched)
        for name in RESIDUAL_FIELDS:
            assert scalar_residuals[name] == float(batched_residuals[name][0]), name

    def test_solution_residuals_detached_from_scratch(self, problem):
        """A returned solution must not see the next solve's residuals."""
        solver = TinyMPCSolver(problem, SolverSettings(max_iterations=10))
        first = solver.solve(np.full(problem.state_dim, 0.1))
        saved = dict(first.residuals)
        solver.solve(np.full(problem.state_dim, 0.7))
        assert first.residuals == saved

    def test_compute_residuals_returns_detached_batch_arrays(self, problem,
                                                             cache):
        """compute_residuals snapshots must survive further iterations
        (pre-refactor behavior: every call produced fresh arrays)."""
        ws = _randomized(BatchTinyMPCWorkspace(problem, batch=3), 33)
        snapshot = compute_residuals(ws)
        saved = {name: value.copy() for name, value in snapshot.items()}
        ws.x += 1.0
        update_residuals(ws)
        for name in RESIDUAL_FIELDS:
            np.testing.assert_array_equal(snapshot[name], saved[name],
                                          err_msg=name)


class TestCachedOperators:
    """The precomputed hot-path operators must mirror their sources."""

    def test_problem_operators(self, problem):
        # Zero-copy views of the as-stored dynamics (numpy may collapse the
        # view chain, so assert shared memory rather than a specific base).
        assert np.shares_memory(problem.AT, problem.A)
        assert np.shares_memory(problem.BT, problem.B)
        np.testing.assert_array_equal(problem.AT, problem.A.T)
        np.testing.assert_array_equal(problem.BT, problem.B.T)
        np.testing.assert_array_equal(problem.neg_Q, -problem.Q)
        np.testing.assert_array_equal(problem.neg_R, -problem.R)

    def test_cache_operators(self, cache):
        np.testing.assert_array_equal(cache.KinfT, cache.Kinf.T)
        np.testing.assert_array_equal(cache.Quu_invT, cache.Quu_inv.T)
        np.testing.assert_array_equal(cache.AmBKtT, cache.AmBKt.T)
        np.testing.assert_array_equal(cache.neg_KinfT, -(cache.Kinf.T))
        np.testing.assert_array_equal(cache.neg_Pinf, -cache.Pinf)
        # Same memory layout as the views main built per call — the
        # bit-for-bit precondition.
        assert cache.KinfT.base is cache.Kinf
        assert cache.neg_KinfT.strides == cache.Kinf.T.strides

    def test_problem_hash_memoized(self, problem):
        from repro.tinympc import problem_hash
        first = problem_hash(problem)
        assert problem_hash(problem) == first
        assert getattr(problem, "_hash_memo") == first
