"""Layout contract of the step-major solver workspaces.

Every workspace buffer is stored knot point first, in two arenas (states
and inputs) plus one residual block, and the public names are views of
that storage with the familiar ``(N, k)`` / ``(B, N, k)`` shapes.  The
kernels rely on three properties, checked here on the scalar layout and
on batches of 1, 2, 5 and 33, at the quadrotor horizon and at horizon 2
(one step in each recursion):

* every public buffer keeps its shape;
* every per-step slab the kernels touch is a C-contiguous view of its
  named buffer at the right knot point;
* a masked batched solve leaves inactive rows bit-identical, so the
  freeze gathers round-trip.
"""

import numpy as np
import pytest

from repro.tinympc import (
    BatchTinyMPCSolver,
    BatchTinyMPCWorkspace,
    SolverSettings,
    TinyMPCWorkspace,
    default_quadrotor_problem,
)
from repro.tinympc.workspace import (
    INPUT_BUFFERS,
    RESIDUAL_FIELDS,
    STATE_BUFFERS,
    WORKSPACE_BUFFERS,
)

BATCHES = (None, 1, 2, 5, 33)


def _batch_id(batch):
    return "scalar" if batch is None else "B{}".format(batch)


@pytest.fixture(scope="module", params=(10, 2), ids=("N10", "N2"))
def problem(request):
    return default_quadrotor_problem(horizon=request.param)


def _distinct(problem, batch):
    """A workspace whose every stored element holds a distinct value."""
    ws = (TinyMPCWorkspace(problem) if batch is None
          else BatchTinyMPCWorkspace(problem, batch=batch))
    ws.pairs[...] = np.arange(ws.pairs.size).reshape(ws.pairs.shape)
    ws.residual_block[...] = -1.0 - np.arange(ws.residual_block.size
                                              ).reshape(ws.residual_block.shape)
    return ws


def _check_slab(slab, buffer, step, label):
    assert slab.flags.c_contiguous, label
    assert np.shares_memory(slab, buffer), label
    np.testing.assert_array_equal(slab, buffer[..., step, :], err_msg=label)


@pytest.mark.parametrize("batch", BATCHES, ids=_batch_id)
class TestWorkspaceLayout:
    def test_public_buffers_keep_their_shapes(self, problem, batch):
        ws = _distinct(problem, batch)
        lead = () if batch is None else (batch,)
        N, n, m = problem.horizon, problem.state_dim, problem.input_dim
        assert sorted(STATE_BUFFERS + INPUT_BUFFERS) == sorted(
            WORKSPACE_BUFFERS)
        for name in STATE_BUFFERS:
            assert getattr(ws, name).shape == lead + (N, n), name
        for name in INPUT_BUFFERS:
            assert getattr(ws, name).shape == lead + (N - 1, m), name
        for name in RESIDUAL_FIELDS:
            assert getattr(ws, name).shape == lead, name
            assert np.shares_memory(getattr(ws, name), ws.residual_block)
        # The buffers partition the storage: no two names overlap.
        names = WORKSPACE_BUFFERS + RESIDUAL_FIELDS
        for index, name in enumerate(names):
            for other in names[index + 1:]:
                assert not np.shares_memory(getattr(ws, name),
                                            getattr(ws, other)), (name, other)

    def test_step_slabs_are_contiguous_views_of_their_buffers(self, problem,
                                                              batch):
        ws = _distinct(problem, batch)
        s = ws.scratch
        N = problem.horizon
        assert len(s.fwd_steps) == len(s.bwd_steps) == N - 1
        for i, (x_i, x_next, u_i, d_i) in enumerate(s.fwd_steps):
            _check_slab(x_i, ws.x, i, "fwd x[{}]".format(i))
            _check_slab(x_next, ws.x, i + 1, "fwd x[{}]".format(i + 1))
            _check_slab(u_i, ws.u, i, "fwd u[{}]".format(i))
            _check_slab(d_i, ws.d, i, "fwd d[{}]".format(i))
        for i, (p_next, p_i, d_i, q_i, r_i, kr_i) in zip(
                range(N - 2, -1, -1), s.bwd_steps):
            _check_slab(p_next, ws.p, i + 1, "bwd p[{}]".format(i + 1))
            _check_slab(p_i, ws.p, i, "bwd p[{}]".format(i))
            _check_slab(d_i, ws.d, i, "bwd d[{}]".format(i))
            _check_slab(q_i, ws.q, i, "bwd q[{}]".format(i))
            _check_slab(r_i, ws.r, i, "bwd r[{}]".format(i))
            assert kr_i.flags.c_contiguous
            assert np.shares_memory(kr_i, s.kr)
        for view, name in ((s.p_last, "p"), (s.Xref_last, "Xref"),
                           (s.vnew_last, "vnew"), (s.g_last, "g")):
            _check_slab(view, getattr(ws, name), N - 1,
                        "terminal {}".format(name))


@pytest.mark.parametrize("batch", BATCHES[1:], ids=_batch_id)
def test_arena_gathers_round_trip(problem, batch):
    """Freezing rows and restoring them brings back exactly those rows
    of every buffer and residual, and touches no other row."""
    solver = BatchTinyMPCSolver(problem, batch)
    ws = solver.workspace
    ws.pairs[...] = np.arange(ws.pairs.size).reshape(ws.pairs.shape)
    ws.residual_block[...] = np.arange(ws.residual_block.size).reshape(
        ws.residual_block.shape)
    before = {name: getattr(ws, name).copy()
              for name in WORKSPACE_BUFFERS + RESIDUAL_FIELDS}
    index = np.arange(0, batch, 2)
    solver._save(index)
    ws.pairs.fill(np.nan)
    ws.residual_block.fill(np.nan)
    solver._restore(index)
    others = np.setdiff1d(np.arange(batch), index)
    for name, values in before.items():
        np.testing.assert_array_equal(getattr(ws, name)[index],
                                      values[index], err_msg=name)
        assert np.isnan(getattr(ws, name)[others]).all(), name


@pytest.mark.parametrize("batch", (2, 5, 33), ids=_batch_id)
def test_masked_solve_leaves_inactive_rows_bit_identical(problem, batch):
    rng = np.random.default_rng(batch)
    n = problem.state_dim
    solver = BatchTinyMPCSolver(problem, batch,
                                SolverSettings(max_iterations=25))
    solver.solve(0.2 * rng.standard_normal((batch, n)),
                 Xref=0.1 * rng.standard_normal((batch, n)))
    ws = solver.workspace
    before = {name: getattr(ws, name).copy()
              for name in WORKSPACE_BUFFERS + RESIDUAL_FIELDS}
    active = rng.random(batch) < 0.5
    active[0], active[-1] = True, False
    solution = solver.solve(0.2 * rng.standard_normal((batch, n)),
                            Xref=0.1 * rng.standard_normal((batch, n)),
                            active=active)
    inactive = ~active
    assert (solution.iterations[inactive] == 0).all()
    assert (solution.iterations[active] > 0).all()
    for name, values in before.items():
        np.testing.assert_array_equal(getattr(ws, name)[inactive],
                                      values[inactive], err_msg=name)
    # The active rows did solve from their new initial states.
    for name in ("x", "u"):
        assert not np.array_equal(getattr(ws, name)[active],
                                  before[name][active]), name
