"""Property-based bit-equality of the fast kernels vs the naive reference.

``tests/tinympc/test_hotpath_exact.py`` pins the zero-allocation kernel
rewrite to the pre-refactor implementations on the *quadrotor* problem;
this suite generalizes the contract with hypothesis: for randomized
problem shapes (state/input dimension, horizon), random stable dynamics,
and randomized workspace contents, every kernel — including the
``update_dual`` scalar path that runs through the ``input_tmp`` /
``state_tmp`` scratch — must reproduce its :mod:`repro.tinympc.naive`
counterpart bit for bit, on both the scalar and the batched workspace
layout.  The comparison is ``==`` with no tolerances: the rewrite's claim
is that only result *storage* changed, never the floating-point operation
order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tinympc import (
    BatchTinyMPCWorkspace,
    MPCProblem,
    SolverSettings,
    TinyMPCSolver,
    TinyMPCWorkspace,
    compute_cache,
    use_compiled_kernels,
    use_naive_kernels,
)
from repro.tinympc import kernels
from repro.tinympc.compiled import resolve_backend
from repro.tinympc.workspace import RESIDUAL_FIELDS, WORKSPACE_BUFFERS

# Each kernel is looked up on the module *at call time*, so running the
# same closure inside ``use_naive_kernels()`` dispatches to the swapped-in
# reference implementation — the exact mechanism the solvers use.
KERNEL_CALLS = (
    ("forward_pass", lambda ws, cache: kernels.forward_pass(ws, cache)),
    ("backward_pass", lambda ws, cache: kernels.backward_pass(ws, cache)),
    ("update_slack", lambda ws, cache: kernels.update_slack(ws)),
    ("update_dual", lambda ws, cache: kernels.update_dual(ws)),
    ("update_linear_cost",
     lambda ws, cache: kernels.update_linear_cost(ws, cache)),
    ("update_residuals", lambda ws, cache: kernels.update_residuals(ws)),
)


def make_problem(n, m, horizon, seed):
    """A random box-constrained problem with stable dynamics.

    The spectral radius is scaled to 0.95 so the infinite-horizon Riccati
    iteration inside :func:`compute_cache` converges for every draw.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    radius = float(np.max(np.abs(np.linalg.eigvals(A))))
    A *= 0.95 / max(radius, 1e-9)
    B = rng.standard_normal((n, m))
    Q = np.diag(rng.uniform(0.5, 5.0, n))
    R = np.diag(rng.uniform(0.1, 1.0, m))
    bound = rng.uniform(0.3, 1.5, m)
    return MPCProblem(A=A, B=B, Q=Q, R=R, rho=5.0, horizon=horizon,
                      u_min=-bound, u_max=bound,
                      name="prop-{}x{}x{}-{}".format(n, m, horizon, seed))


def _randomized(ws, seed):
    rng = np.random.default_rng(seed)
    for name in WORKSPACE_BUFFERS:
        array = getattr(ws, name)
        array[...] = 0.05 * rng.standard_normal(array.shape)
    return ws


def _assert_workspaces_identical(fast, reference, label):
    for name in WORKSPACE_BUFFERS:
        np.testing.assert_array_equal(
            getattr(fast, name), getattr(reference, name),
            err_msg="{}: buffer {}".format(label, name))
    for name in RESIDUAL_FIELDS:
        # The naive reduction rebinds scalar residuals to Python floats
        # where the live kernels write preallocated 0-d arrays; the
        # *values* must still be identical bits.
        np.testing.assert_array_equal(
            np.asarray(getattr(fast, name)),
            np.asarray(getattr(reference, name)),
            err_msg="{}: residual {}".format(label, name))


shapes = st.tuples(st.integers(2, 6),     # state dimension n
                   st.integers(1, 3),     # input dimension m
                   st.integers(3, 8))     # horizon N


class TestKernelBitEquality:
    @settings(max_examples=20, deadline=None)
    @given(shape=shapes, seed=st.integers(0, 2**16))
    def test_scalar_layout(self, shape, seed):
        n, m, horizon, = shape
        problem = make_problem(n, m, horizon, seed)
        cache = compute_cache(problem)
        for label, call in KERNEL_CALLS:
            fast = _randomized(TinyMPCWorkspace(problem), seed + 1)
            reference = _randomized(TinyMPCWorkspace(problem), seed + 1)
            call(fast, cache)
            with use_naive_kernels():
                call(reference, cache)
            _assert_workspaces_identical(fast, reference, label)

    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, seed=st.integers(0, 2**16),
           batch=st.integers(1, 4))
    def test_batch_layout(self, shape, seed, batch):
        n, m, horizon = shape
        problem = make_problem(n, m, horizon, seed)
        cache = compute_cache(problem)
        for label, call in KERNEL_CALLS:
            fast = _randomized(BatchTinyMPCWorkspace(problem, batch=batch),
                               seed + 2)
            reference = _randomized(
                BatchTinyMPCWorkspace(problem, batch=batch), seed + 2)
            call(fast, cache)
            with use_naive_kernels():
                call(reference, cache)
            _assert_workspaces_identical(fast, reference,
                                         "{} (batch={})".format(label, batch))

    @settings(max_examples=10, deadline=None)
    @given(shape=shapes, seed=st.integers(0, 2**16))
    def test_full_solve_bit_equality(self, shape, seed):
        """End to end: a warm-started solve sequence on a random problem
        matches the naive-kernel solver exactly, iterations included."""
        n, m, horizon = shape
        problem = make_problem(n, m, horizon, seed)
        settings_ = SolverSettings(max_iterations=15)
        fast = TinyMPCSolver(problem, settings_)
        reference = TinyMPCSolver(problem, settings_)
        rng = np.random.default_rng(seed + 3)
        goal = np.zeros(n)
        for _ in range(2):
            x0 = 0.2 * rng.standard_normal(n)
            fast_solution = fast.solve(x0, Xref=goal)
            with use_naive_kernels():
                reference_solution = reference.solve(x0, Xref=goal)
            assert fast_solution.iterations == reference_solution.iterations
            assert fast_solution.converged == reference_solution.converged
            np.testing.assert_array_equal(fast_solution.states,
                                          reference_solution.states)
            np.testing.assert_array_equal(fast_solution.inputs,
                                          reference_solution.inputs)

    def test_update_dual_uses_scratch_not_fresh_arrays(self):
        """The named satellite: the fast ``update_dual`` must route its
        differences through the preallocated scratch buffers (the naive
        form allocates per call), while producing identical bits."""
        problem = make_problem(4, 2, 5, seed=7)
        ws = _randomized(TinyMPCWorkspace(problem), 11)
        scratch = ws.scratch
        input_tmp, state_tmp = scratch.input_tmp, scratch.state_tmp
        expected_y = ws.y + (ws.u - ws.znew)
        expected_g = ws.g + (ws.x - ws.vnew)
        kernels.update_dual(ws)
        np.testing.assert_array_equal(ws.y, expected_y)
        np.testing.assert_array_equal(ws.g, expected_g)
        # The scratch arrays hold the last differences — proof the kernel
        # wrote through them rather than allocating temporaries.
        np.testing.assert_array_equal(input_tmp, ws.u - ws.znew)
        np.testing.assert_array_equal(state_tmp, ws.x - ws.vnew)


# ---------------------------------------------------------------------------
# Compiled backends vs the numpy fast path
# ---------------------------------------------------------------------------

# The compiled backends are shape-specialized (the C backend builds one
# shared library per (n, m, N)), so the sweep runs hypothesis over *data*
# (seeds drive the dynamics, costs, and workspace contents) on a FIXED
# shape list — a full hypothesis shape sweep would trigger an unbounded
# number of compiles.  The list spans the corner shapes: minimum dims,
# m == 1 (degenerate GEMV), mid-size, and the quadrotor shape the backends
# pre-build.
COMPILED_SHAPES = ((2, 1, 3), (4, 2, 5), (6, 3, 8), (12, 4, 10))

# Tolerance policy (documented contract, see docs/perf.md): elementwise and
# reduction kernels are bit-for-bit — their per-element operation order is
# identical to numpy's.  Matvec-based kernels accumulate in axpy order,
# which per-lane matches a sequential dot product but not necessarily
# BLAS's blocking, so they carry a float64 relative tolerance instead.
EXACT_COMPILED_KERNELS = frozenset(
    ["update_slack", "update_dual", "update_residuals"])
COMPILED_F64_RTOL = 1e-11
COMPILED_F64_ATOL = 1e-13


def _compiled_backend_or_skip(name="auto"):
    impl, resolved = resolve_backend(name)
    if impl is None:
        pytest.skip("no compiled kernel backend available")
    return impl, resolved


def _assert_compiled_close(fast, reference, label, rtol, atol, exact):
    for name in WORKSPACE_BUFFERS:
        a, b = getattr(fast, name), getattr(reference, name)
        if exact:
            np.testing.assert_array_equal(
                a, b, err_msg="{}: buffer {}".format(label, name))
        else:
            np.testing.assert_allclose(
                a, b, rtol=rtol, atol=atol,
                err_msg="{}: buffer {}".format(label, name))
    for name in RESIDUAL_FIELDS:
        a = np.asarray(getattr(fast, name))
        b = np.asarray(getattr(reference, name))
        if exact:
            np.testing.assert_array_equal(
                a, b, err_msg="{}: residual {}".format(label, name))
        else:
            np.testing.assert_allclose(
                a, b, rtol=rtol, atol=atol,
                err_msg="{}: residual {}".format(label, name))


class TestCompiledBackendEquivalence:
    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("shape", COMPILED_SHAPES,
                             ids=lambda s: "x".join(map(str, s)))
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_kernels_match_numpy_fast_path(self, shape, batch, seed):
        """Per-kernel: the compiled backend reproduces the numpy fast path
        under the documented tolerance policy, scalar and batched."""
        impl, resolved = _compiled_backend_or_skip()
        n, m, horizon = shape
        problem = make_problem(n, m, horizon, seed)
        cache = compute_cache(problem)

        def build(seed_offset=4):
            ws = (TinyMPCWorkspace(problem) if batch is None
                  else BatchTinyMPCWorkspace(problem, batch=batch))
            return _randomized(ws, seed + seed_offset)

        for label, call in KERNEL_CALLS:
            fast, reference = build(), build()
            with use_compiled_kernels(resolved):
                call(fast, cache)
            call(reference, cache)
            _assert_compiled_close(
                fast, reference, "{} [{}]".format(label, resolved),
                COMPILED_F64_RTOL, COMPILED_F64_ATOL,
                exact=label in EXACT_COMPILED_KERNELS)

    @pytest.mark.parametrize("shape", COMPILED_SHAPES,
                             ids=lambda s: "x".join(map(str, s)))
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_fused_iteration_matches_numpy_fast_path(self, shape, seed):
        """The fused full iteration (the call the solvers actually make)
        stays within the matvec tolerance end to end."""
        impl, resolved = _compiled_backend_or_skip()
        n, m, horizon = shape
        problem = make_problem(n, m, horizon, seed)
        cache = compute_cache(problem)
        fast = _randomized(TinyMPCWorkspace(problem), seed + 5)
        reference = _randomized(TinyMPCWorkspace(problem), seed + 5)
        with use_compiled_kernels(resolved):
            for _ in range(3):
                kernels.admm_iteration(fast, cache)
        for _ in range(3):
            kernels.admm_iteration(reference, cache)
        _assert_compiled_close(
            fast, reference, "admm_iteration [{}]".format(resolved),
            # Three chained iterations compound the per-matvec differences.
            rtol=1e-9, atol=1e-11, exact=False)
