"""Solver workspaces for TinyMPC (scalar and batched).

The workspace holds every array the ADMM iterations touch.  Its buffer
names mirror the TinyMPC C implementation, and it is also the thing the
Gemmini mapping pins into the scratchpad (paper Figure 8), so the names
here are reused by the residency planner in :mod:`repro.codegen`.

Two layouts share one allocation path:

* :class:`TinyMPCWorkspace` — one problem instance, buffers shaped
  ``(N, n)`` / ``(N-1, m)``; this is what the C implementation stores.
* :class:`BatchTinyMPCWorkspace` — ``B`` independent instances of the
  same :class:`~repro.tinympc.problem.MPCProblem` structure, whose public
  buffers are ``(B, N, n)`` / ``(B, N-1, m)`` so the kernels in
  :mod:`repro.tinympc.kernels` run every instance with single vectorized
  numpy calls.

Storage is **step-major** on both layouts: the knot-point index comes
first, so knot point ``i`` of every instance is one contiguous ``(B, k)``
slab, exactly as it is one contiguous ``(k,)`` row on the scalar layout.
The per-step kernels therefore run one loop for both layouts.  The
fourteen horizon buffers live in two arenas, the state arena
``(7, N, *lead, n)`` (:data:`STATE_BUFFERS`) and the input arena
``(7, N-1, *lead, m)`` (:data:`INPUT_BUFFERS`), and the four residuals
are the rows of one ``(4, *lead)`` block.  The public names (``ws.x``,
``ws.u`` ...) are views of the arena rows with the step axis moved
second to last, so on a batched workspace they keep their ``(B, N, k)``
shape as transposed views of the same memory.

Both arenas are carved out of one ``(7, state + input)`` allocation,
:attr:`TinyMPCWorkspace.pairs`, whose row ``j`` holds state buffer ``j``
followed by input buffer ``j``.  The elementwise kernels pair state and
input buffers the same way (``x`` with ``u``, ``vnew`` with ``znew``,
``g`` with ``y`` ...), so each runs one ufunc call over a flat row
where it would otherwise make two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .problem import MPCProblem

__all__ = ["TinyMPCWorkspace", "BatchTinyMPCWorkspace", "SolveScratch",
           "WORKSPACE_BUFFERS", "STATE_BUFFERS", "INPUT_BUFFERS", "COLD_ROWS",
           "RESIDUAL_FIELDS"]


# Every mutable horizon-indexed buffer, in scratchpad-layout order.  Shared
# by reset/snapshot logic here and by the slot copies in
# :mod:`repro.tinympc.batch`.
WORKSPACE_BUFFERS: Tuple[str, ...] = (
    "x", "u", "q", "r", "p", "d", "v", "vnew", "z", "znew", "g", "y",
    "Xref", "Uref",
)

# Arena row order.  Row ``j`` of the state arena and row ``j`` of the input
# arena are the pair the elementwise kernels update together.
STATE_BUFFERS: Tuple[str, ...] = ("x", "v", "vnew", "g", "q", "p", "Xref")
INPUT_BUFFERS: Tuple[str, ...] = ("u", "z", "znew", "y", "r", "d", "Uref")

# The arena rows a cold start zeroes: the slack and dual state plus the
# gradient terms (v vnew g q p, z znew y r d).  This is the single source
# of truth for both the scalar solver (TinyMPCSolver.solve) and the batched
# solver (BatchTinyMPCSolver.solve) — keep them in lockstep or their
# rtol=1e-10 equivalence contract breaks.
COLD_ROWS = slice(1, 6)

RESIDUAL_FIELDS: Tuple[str, ...] = (
    "primal_residual_state", "dual_residual_state",
    "primal_residual_input", "dual_residual_input",
)


class SolveScratch:
    """Preallocated views and temporaries for the allocation-free kernels.

    Built lazily (once per workspace) by :attr:`TinyMPCWorkspace.scratch`.
    After this warmup, every fast kernel in :mod:`repro.tinympc.kernels`
    runs without allocating a single numpy buffer: every matmul/ufunc
    writes into a scratch array or a workspace buffer via ``out=``.  The
    per-knot-point slabs in :attr:`fwd_steps` and :attr:`bwd_steps` and
    the terminal views are contiguous ``(k,)`` or ``(B, k)`` blocks of the
    step-major arenas, so ufuncs write them directly on both layouts (a
    ufunc on a strided operand would make numpy spin up a buffered
    iterator, measurable as a traced allocation).

    Invariant: the workspace arrays (the arenas, the residual block and
    the named views of them) must never be **rebound** after construction
    (in-place writes only — which is how the whole codebase treats them),
    or the prebuilt views here and the C backend's bound pointers would go
    stale.
    """

    def __init__(self, ws: "TinyMPCWorkspace") -> None:
        lead = ws.lead_shape
        N, n, m = ws.horizon, ws.state_dim, ws.input_dim
        problem = ws.problem
        self.is_scalar = lead == ()
        x, v, vnew, g, q, p, Xref = ws.state_arena
        u, z, znew, y, r, d, Uref = ws.input_arena
        # Step tuples in iteration order: one unpack per knot point instead
        # of four index lookups.
        self.fwd_steps = tuple((x[i], x[i + 1], u[i], d[i])
                               for i in range(N - 1))
        # Terminal-knot views for update_linear_cost_4.
        self.p_last = p[N - 1]
        self.Xref_last = Xref[N - 1]
        self.vnew_last = vnew[N - 1]
        self.g_last = g[N - 1]
        # Fused ``r @ Kinf`` precompute for the backward pass: ``r`` and
        # ``kr`` are step-major, so the fused matmul runs the per-step GEMM
        # on every step slab.  Whether the fused form is bit-identical to
        # per-step calls is BLAS-specific, so ``backward_pass`` verifies it
        # against this host's BLAS once per (workspace, cache) and falls
        # back to per-step calls otherwise (`kr_ok`/`kr_cache` memoize the
        # verdict).
        self.r = r
        self.kr = np.empty((N - 1,) + lead + (n,))
        self.kr_cache = None
        self.kr_ok = False
        # Backward-pass step tuples (reverse iteration order).
        self.bwd_steps = tuple((p[i + 1], p[i], d[i], q[i], r[i], self.kr[i])
                               for i in range(N - 2, -1, -1))
        # Contiguous vector scratch (one knot point wide).
        self.vec_n = np.empty(lead + (n,))
        self.vec_n2 = np.empty(lead + (n,))
        self.vec_m = np.empty(lead + (m,))
        # The (state | input) pair rows the elementwise kernels update as
        # one flat block each: [x|u], [v|z], [vnew|znew], [g|y], [q|r].
        self.xu, self.vz, self.vz_new, self.gy, self.qr = ws.pairs[:5]
        # Flat scratch laid out like a pair row, and the same for the box
        # bounds, materialized at full operand shape: numpy's ufunc
        # machinery spins up a ~buffer-sized traced temporary when a bound
        # has to broadcast against a batched operand, and a same-shape
        # bound is selection-exact (identical bits) while iterating
        # allocation-free.
        width = ws.pairs.shape[1]
        self.pair_tmp = np.empty(width)
        self.lo = np.empty(width)
        self.hi = np.empty(width)
        state_size = ws.state_arena[0].size
        for bounds, state_bound, input_bound in (
                (self.lo, problem.x_min, problem.u_min),
                (self.hi, problem.x_max, problem.u_max)):
            bounds[:state_size].reshape((N,) + lead + (n,))[...] = state_bound
            bounds[state_size:].reshape((N - 1,) + lead + (m,))[...] = \
                input_bound
        # Residual scratch: the primal differences [x-vnew|u-znew] and the
        # dual differences [v-vnew|z-znew] as the two rows of one block.
        # Each half (state, input) reduces over the step axis into
        # ``(2, *lead, k)``, is copied vector-major into ``(2, k, *lead)``
        # (a max over a short innermost axis costs a numpy inner-loop call
        # per instance; over an outer axis, one per vector element), and
        # reduces over the vector axis into its rows of the residual block:
        # the state residuals are rows 0-1 and the input residuals rows 2-3
        # (:data:`RESIDUAL_FIELDS` order).
        self.diff = np.empty((2, width))
        block = ws.residual_block
        halves = []
        for part, steps, k, rows in (
                (self.diff[:, :state_size], N, n, block[0:2]),
                (self.diff[:, state_size:], N - 1, m, block[2:4])):
            step_max = np.empty((2,) + lead + (k,))
            vector_major = np.empty((2, k) + lead)
            halves.append((part.reshape((2, steps) + lead + (k,)), step_max,
                           np.moveaxis(step_max, -1, 1), vector_major, rows))
        self.residual_halves = tuple(halves)
        self.residual_dual = block[1::2]


@dataclass
class TinyMPCWorkspace:
    """All mutable solver state for one TinyMPC instance.

    Horizon-indexed arrays are stored with the knot-point index first:
    states are ``(N, n)`` and inputs ``(N-1, m)``, rows of the
    step-major arenas described in the module docstring.
    """

    problem: MPCProblem

    # primal trajectories
    x: np.ndarray = field(init=False)
    u: np.ndarray = field(init=False)
    # linear cost terms
    q: np.ndarray = field(init=False)
    r: np.ndarray = field(init=False)
    p: np.ndarray = field(init=False)
    d: np.ndarray = field(init=False)
    # slack variables
    v: np.ndarray = field(init=False)
    vnew: np.ndarray = field(init=False)
    z: np.ndarray = field(init=False)
    znew: np.ndarray = field(init=False)
    # dual variables
    g: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False)
    # references (nothing sets an input reference, so ``Uref`` stays zero;
    # the linear-cost kernels still read it, as TinyMPC's do)
    Xref: np.ndarray = field(init=False)
    Uref: np.ndarray = field(init=False)
    # residuals: preallocated reduction outputs the kernels write with
    # ``out=`` — 0-d arrays here, per-instance ``(B,)`` arrays in the batched
    # subclass (one symmetric storage path for both layouts), each a row of
    # ``residual_block``
    primal_residual_state: np.ndarray = field(init=False, default=None)
    dual_residual_state: np.ndarray = field(init=False, default=None)
    primal_residual_input: np.ndarray = field(init=False, default=None)
    dual_residual_input: np.ndarray = field(init=False, default=None)
    # the storage behind every field above
    pairs: np.ndarray = field(init=False, default=None, repr=False)
    state_arena: np.ndarray = field(init=False, default=None, repr=False)
    input_arena: np.ndarray = field(init=False, default=None, repr=False)
    residual_block: np.ndarray = field(init=False, default=None, repr=False)
    # lazily-built kernel scratch arena (not part of the solver state)
    _scratch: Optional[SolveScratch] = field(init=False, default=None,
                                             repr=False)

    def __post_init__(self) -> None:
        n = self.problem.state_dim
        m = self.problem.input_dim
        N = self.problem.horizon
        lead = self.lead_shape
        batch_elems = 1
        for dim in lead:
            batch_elems *= dim
        state_size = N * batch_elems * n
        self.pairs = np.zeros((len(STATE_BUFFERS),
                               state_size + (N - 1) * batch_elems * m))
        self.state_arena = self.pairs[:, :state_size].reshape(
            (len(STATE_BUFFERS), N) + lead + (n,))
        self.input_arena = self.pairs[:, state_size:].reshape(
            (len(INPUT_BUFFERS), N - 1) + lead + (m,))
        for names, arena in ((STATE_BUFFERS, self.state_arena),
                             (INPUT_BUFFERS, self.input_arena)):
            for name, slab in zip(names, arena):
                setattr(self, name, np.moveaxis(slab, 0, -2))
        self.residual_block = np.full((len(RESIDUAL_FIELDS),) + lead, np.inf)
        for row, name in enumerate(RESIDUAL_FIELDS):
            setattr(self, name, self.residual_block[row, ...])

    # -- dimensions ----------------------------------------------------------
    @property
    def lead_shape(self) -> Tuple[int, ...]:
        """Leading (batch) shape prepended to every buffer; ``()`` here."""
        return ()

    @property
    def state_dim(self) -> int:
        return self.problem.state_dim

    @property
    def input_dim(self) -> int:
        return self.problem.input_dim

    @property
    def horizon(self) -> int:
        return self.problem.horizon

    # -- kernel scratch ---------------------------------------------------------
    @property
    def scratch(self) -> SolveScratch:
        """The workspace's :class:`SolveScratch`, built on first use."""
        arena = self._scratch
        if arena is None:
            arena = SolveScratch(self)
            self._scratch = arena
        return arena

    # -- lifecycle ------------------------------------------------------------
    def reset(self) -> None:
        """Zero all trajectories, slacks, duals, and references; residuals
        go back to ``inf``."""
        self.pairs.fill(0.0)
        self.residual_block.fill(np.inf)

    def clip_inputs(self) -> None:
        """Clip ``u`` to the input box in place, on its contiguous arena
        row (a ufunc over the transposed batched view is about 3x slower)."""
        u = self.input_arena[0]
        np.clip(u, self.problem.u_min, self.problem.u_max, out=u)

    def set_initial_state(self, x0: np.ndarray) -> None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (self.state_dim,):
            raise ValueError("x0 must have shape ({},)".format(self.state_dim))
        self.x[0] = x0

    def set_reference(self, Xref: np.ndarray) -> None:
        """Set the tracking reference; a single state is broadcast over N."""
        Xref = np.asarray(Xref, dtype=np.float64)
        if Xref.ndim == 1:
            Xref = np.tile(Xref, (self.horizon, 1))
        if Xref.shape != (self.horizon, self.state_dim):
            raise ValueError("Xref must have shape ({}, {})".format(
                self.horizon, self.state_dim))
        self.Xref[...] = Xref

    # -- residual bookkeeping ---------------------------------------------------
    def residuals(self) -> Dict[str, float]:
        """Current residuals as plain floats (detached from the scratch)."""
        return {name: float(getattr(self, name)) for name in RESIDUAL_FIELDS}

    # -- snapshots (for tests/benchmarks) -----------------------------------------
    def snapshot(self) -> Dict[str, np.ndarray]:
        """Deep copy of every array, keyed by buffer name."""
        return {name: getattr(self, name).copy() for name in WORKSPACE_BUFFERS}


@dataclass
class BatchTinyMPCWorkspace(TinyMPCWorkspace):
    """Solver state for ``B`` stacked instances of one MPC problem.

    Every public buffer gains a leading batch axis — states are
    ``(B, N, n)`` and inputs ``(B, N-1, m)``, transposed views of the
    step-major ``(N, B, n)`` / ``(N-1, B, m)`` arena rows — and the four
    residual fields become ``(B,)`` arrays holding per-instance values.
    """

    batch: int = 1

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        super().__post_init__()

    @property
    def lead_shape(self) -> Tuple[int, ...]:
        return (self.batch,)

    def residuals(self) -> Dict[str, np.ndarray]:
        """Current per-instance residuals (live ``(B,)`` views, not copies)."""
        return {name: getattr(self, name) for name in RESIDUAL_FIELDS}

    def set_initial_state(self, x0: np.ndarray) -> None:
        """Set the batch of initial states from a ``(B, n)`` array.

        A single ``(n,)`` state is broadcast to every instance.
        """
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.ndim == 1:
            x0 = np.tile(x0, (self.batch, 1))
        if x0.shape != (self.batch, self.state_dim):
            raise ValueError("x0 must have shape ({}, {})".format(
                self.batch, self.state_dim))
        self.x[:, 0, :] = x0

    def set_reference(self, Xref: np.ndarray) -> None:
        """Set tracking references, broadcasting shared shapes.

        Accepted ``Xref`` shapes:

        * ``(n,)`` — one goal state shared by every instance and knot point,
        * ``(B, n)`` — a per-instance goal state broadcast over the horizon,
        * ``(B, N, n)`` — fully per-instance trajectories.
        """
        Xref = np.asarray(Xref, dtype=np.float64)
        B, N, n = self.batch, self.horizon, self.state_dim
        if Xref.shape == (n,) or Xref.shape == (B, N, n):
            self.Xref[...] = Xref
        elif Xref.shape == (B, n):
            self.Xref[...] = Xref[:, None, :]
        else:
            raise ValueError(
                "Xref must have shape ({n},), ({B}, {n}), or ({B}, {N}, {n}); "
                "got {shape}".format(n=n, B=B, N=N, shape=Xref.shape))
