"""Solver workspaces for TinyMPC (scalar and batched).

The workspace holds every array the ADMM iterations touch.  Its layout
mirrors the TinyMPC C implementation (state-major arrays over the horizon)
and it is also the thing the Gemmini mapping pins into the scratchpad
(paper Figure 8), so the buffer names here are reused by the residency
planner in :mod:`repro.codegen`.

Two layouts share one allocation path:

* :class:`TinyMPCWorkspace` — one problem instance, arrays shaped
  ``(N, n)`` / ``(N-1, m)``; this is what the C implementation stores.
* :class:`BatchTinyMPCWorkspace` — ``B`` independent instances of the
  same :class:`~repro.tinympc.problem.MPCProblem` structure, stacked into
  ``(B, N, n)`` / ``(B, N-1, m)`` arrays so the kernels in
  :mod:`repro.tinympc.kernels` run every instance with single vectorized
  numpy calls.

The kernels index horizon-adjacent slices as ``array[..., i, :]``, which
works identically for both layouts — a batch dimension of one is the
scalar solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .problem import MPCProblem

__all__ = ["TinyMPCWorkspace", "BatchTinyMPCWorkspace", "SolveScratch",
           "WORKSPACE_BUFFERS", "COLD_START_BUFFERS", "RESIDUAL_FIELDS"]


# Every mutable horizon-indexed buffer, in scratchpad-layout order.  Shared
# by reset/snapshot logic here and by the freeze/restore machinery in
# :mod:`repro.tinympc.batch`.
WORKSPACE_BUFFERS: Tuple[str, ...] = (
    "x", "u", "q", "r", "p", "d", "v", "vnew", "z", "znew", "g", "y",
    "Xref", "Uref",
)

# The subset that carries ADMM dual/slack state.
_DUAL_BUFFERS: Tuple[str, ...] = ("v", "vnew", "z", "znew", "g", "y")

# Everything a cold start zeroes: the dual/slack state plus the gradient
# terms.  This is the single source of truth for both the scalar solver
# (TinyMPCSolver.solve) and the batched solver (BatchTinyMPCSolver.solve) —
# keep them in lockstep or their rtol=1e-10 equivalence contract breaks.
COLD_START_BUFFERS: Tuple[str, ...] = _DUAL_BUFFERS + ("d", "p", "q", "r")

RESIDUAL_FIELDS: Tuple[str, ...] = (
    "primal_residual_state", "dual_residual_state",
    "primal_residual_input", "dual_residual_input",
)


class SolveScratch:
    """Preallocated views and temporaries for the allocation-free kernels.

    Built lazily (once per workspace) by :attr:`TinyMPCWorkspace.scratch`.
    After this warmup, every fast kernel in :mod:`repro.tinympc.kernels`
    runs without allocating a single numpy buffer: per-knot-point slices are
    prebuilt views, every matmul/ufunc writes into a scratch array or a
    workspace buffer via ``out=``, and per-step results reach strided rows
    through ``np.copyto`` (a plain ufunc store into a strided batch view
    makes numpy spin up a buffered iterator — measurable as a traced
    allocation — while ``copyto`` does not).

    Invariant: the workspace arrays named in :data:`WORKSPACE_BUFFERS` must
    never be **rebound** after construction (in-place writes only — which is
    how the whole codebase already treats them), or the prebuilt views here
    would go stale.
    """

    def __init__(self, ws: "TinyMPCWorkspace") -> None:
        lead = ws.lead_shape
        N, n, m = ws.horizon, ws.state_dim, ws.input_dim
        problem = ws.problem
        # Scalar (N, k) workspaces have contiguous knot-point rows, so the
        # kernels can point ufuncs straight at them; batched (B, N, k) rows
        # are strided, so per-step traffic goes through contiguous cursors.
        self.is_scalar = lead == ()
        # Per-knot-point row views of the iterative-kernel buffers.
        self.x_steps = tuple(ws.x[..., i, :] for i in range(N))
        self.u_steps = tuple(ws.u[..., i, :] for i in range(N - 1))
        self.p_steps = tuple(ws.p[..., i, :] for i in range(N))
        self.d_steps = tuple(ws.d[..., i, :] for i in range(N - 1))
        self.q_steps = tuple(ws.q[..., i, :] for i in range(N))
        self.r_steps = tuple(ws.r[..., i, :] for i in range(N - 1))
        # Step tuples in iteration order: one unpack per knot point instead
        # of four index lookups.
        self.fwd_steps = tuple(
            (self.x_steps[i], self.x_steps[i + 1], self.u_steps[i],
             self.d_steps[i])
            for i in range(N - 1))
        # Terminal-knot views for update_linear_cost_4.
        self.p_last = self.p_steps[N - 1]
        self.Xref_last = ws.Xref[..., N - 1, :]
        self.vnew_last = ws.vnew[..., N - 1, :]
        self.g_last = ws.g[..., N - 1, :]
        # Fused ``r @ Kinf`` precompute for the backward pass.  ``kr`` is
        # step-major (knot-point index first) so each step's slab is
        # contiguous for both layouts; ``r_stepmajor`` views ``ws.r`` the
        # same way, making the fused matmul's per-step operand layout
        # identical to the per-step GEMV's.  Whether the fused form is
        # bit-identical to per-step calls is BLAS-specific, so
        # ``backward_pass`` verifies it against this host's BLAS once per
        # (workspace, cache) and falls back to per-step calls otherwise
        # (`kr_ok`/`kr_cache` memoize the verdict).
        self.kr = np.empty((N - 1,) + lead + (n,))
        self.kr_steps = tuple(self.kr[i] for i in range(N - 1))
        self.r_stepmajor = ws.r if self.is_scalar else ws.r.transpose(1, 0, 2)
        self.kr_cache = None
        self.kr_ok = False
        # Backward-pass step tuples (reverse iteration order).
        self.bwd_steps = tuple(
            (self.p_steps[i + 1], self.p_steps[i], self.d_steps[i],
             self.q_steps[i], self.r_steps[i], self.kr_steps[i])
            for i in range(N - 2, -1, -1))
        # Contiguous vector scratch (one knot point wide).
        self.vec_n = np.empty(lead + (n,))
        self.vec_n2 = np.empty(lead + (n,))
        self.vec_n3 = np.empty(lead + (n,))
        self.vec_m = np.empty(lead + (m,))
        self.vec_m2 = np.empty(lead + (m,))
        self.vec_m3 = np.empty(lead + (m,))
        # Contiguous whole-horizon scratch for the elementwise/reduction
        # kernels, pair-allocated like the workspace's (state, input) buffer
        # pairs (state part first) so ``update_dual`` can difference a whole
        # pair in one ufunc call.
        state_size = ws.x.size
        self._tmp_flat = np.empty(state_size + ws.u.size)
        self.state_tmp = self._tmp_flat[:state_size].reshape(lead + (N, n))
        self.input_tmp = self._tmp_flat[state_size:].reshape(
            lead + (N - 1, m))
        # Prebound fused operands for update_dual ([x|u], [vnew|znew],
        # [state_tmp|input_tmp], [g|y]): the kernel is pure ufunc traffic, so
        # at scalar shape per-call dispatch overhead dominated enough to
        # bench slower than the naive expression (0.87x in the PR 6
        # baseline).  Two flat-block ufunc calls replace four.
        self.dual_fused = (ws._xu_flat, ws._vz_flat, self._tmp_flat,
                           ws._gy_flat)
        # Box bounds materialized at full operand shape: numpy's ufunc
        # machinery spins up a ~buffer-sized traced temporary when a bound
        # has to broadcast against a batched operand, and a same-shape bound
        # is selection-exact (identical bits) while iterating allocation-free.
        self.u_lo = np.empty(lead + (N - 1, m))
        self.u_hi = np.empty(lead + (N - 1, m))
        self.x_lo = np.empty(lead + (N, n))
        self.x_hi = np.empty(lead + (N, n))
        self.u_lo[...] = problem.u_min
        self.u_hi[...] = problem.u_max
        self.x_lo[...] = problem.x_min
        self.x_hi[...] = problem.x_max


@dataclass
class TinyMPCWorkspace:
    """All mutable solver state for one TinyMPC instance.

    Horizon-indexed arrays are stored with the knot-point index first:
    states are ``(N, n)`` and inputs ``(N-1, m)``.
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
    # references
    Xref: np.ndarray = field(init=False)
    Uref: np.ndarray = field(init=False)
    # residuals: preallocated reduction outputs the kernels write with
    # ``out=`` — 0-d arrays here, per-instance ``(B,)`` arrays in the batched
    # subclass (one symmetric storage path for both layouts)
    primal_residual_state: np.ndarray = field(init=False, default=None)
    dual_residual_state: np.ndarray = field(init=False, default=None)
    primal_residual_input: np.ndarray = field(init=False, default=None)
    dual_residual_input: np.ndarray = field(init=False, default=None)
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
        state_size = batch_elems * N * n
        input_size = batch_elems * (N - 1) * m

        def paired():
            # One flat block holding a (state, input) buffer pair: the state
            # trajectory first, then the input trajectory, each a contiguous
            # reshape view.  The dual-ascent kernel (``update_dual``) touches
            # exactly three such pairs elementwise — y += u - znew and
            # g += x - vnew — so pairing lets it run both updates as a single
            # ufunc call over each flat block (half the dispatch overhead,
            # which dominates this kernel at scalar shape) while every named
            # buffer keeps its public shape and C-contiguity.
            flat = np.zeros(state_size + input_size)
            state = flat[:state_size].reshape(lead + (N, n))
            inputs = flat[state_size:].reshape(lead + (N - 1, m))
            return flat, state, inputs

        self._xu_flat, self.x, self.u = paired()
        self._vz_flat, self.vnew, self.znew = paired()
        self._gy_flat, self.g, self.y = paired()
        self.q = np.zeros(lead + (N, n))
        self.r = np.zeros(lead + (N - 1, m))
        self.p = np.zeros(lead + (N, n))
        self.d = np.zeros(lead + (N - 1, m))
        self.v = np.zeros(lead + (N, n))
        self.z = np.zeros(lead + (N - 1, m))
        self.Xref = np.zeros(lead + (N, n))
        self.Uref = np.zeros(lead + (N - 1, m))
        self._reset_residuals()

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
    def _reset_residuals(self) -> None:
        """(Re)initialize the residual reduction outputs to ``inf``.

        The fields are filled in place once they exist so the kernels'
        ``out=`` targets stay the same arrays across resets; they are
        (re)created when absent or when legacy code rebound one to a float.
        """
        for name in RESIDUAL_FIELDS:
            value = getattr(self, name, None)
            if isinstance(value, np.ndarray) and value.shape == self.lead_shape:
                value.fill(np.inf)
            else:
                setattr(self, name, np.full(self.lead_shape, np.inf))

    def reset(self) -> None:
        """Zero all trajectories, slacks, duals, and references."""
        for name in WORKSPACE_BUFFERS:
            getattr(self, name).fill(0.0)
        self._reset_residuals()

    def reset_duals(self) -> None:
        """Zero only the dual/slack state (used on cold starts)."""
        for name in _DUAL_BUFFERS:
            getattr(self, name).fill(0.0)

    def set_initial_state(self, x0: np.ndarray) -> None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (self.state_dim,):
            raise ValueError("x0 must have shape ({},)".format(self.state_dim))
        self.x[0] = x0

    def set_reference(self, Xref: np.ndarray, Uref: np.ndarray = None) -> None:
        """Set the tracking reference; a single state is broadcast over N."""
        Xref = np.asarray(Xref, dtype=np.float64)
        if Xref.ndim == 1:
            Xref = np.tile(Xref, (self.horizon, 1))
        if Xref.shape != (self.horizon, self.state_dim):
            raise ValueError("Xref must have shape ({}, {})".format(
                self.horizon, self.state_dim))
        self.Xref[...] = Xref
        if Uref is not None:
            Uref = np.asarray(Uref, dtype=np.float64)
            if Uref.ndim == 1:
                Uref = np.tile(Uref, (self.horizon - 1, 1))
            self.Uref[...] = Uref

    # -- residual bookkeeping ---------------------------------------------------
    @property
    def max_residual(self) -> float:
        return float(max(self.primal_residual_state, self.dual_residual_state,
                         self.primal_residual_input, self.dual_residual_input))

    def residuals(self) -> Dict[str, float]:
        """Current residuals as plain floats (detached from the scratch)."""
        return {name: float(getattr(self, name)) for name in RESIDUAL_FIELDS}

    # -- snapshots (for tests/benchmarks) -----------------------------------------
    def snapshot(self) -> Dict[str, np.ndarray]:
        """Deep copy of every array, keyed by buffer name."""
        return {name: getattr(self, name).copy() for name in WORKSPACE_BUFFERS}

    def load_snapshot(self, snapshot: Dict[str, np.ndarray]) -> None:
        for name, value in snapshot.items():
            getattr(self, name)[...] = value


@dataclass
class BatchTinyMPCWorkspace(TinyMPCWorkspace):
    """Solver state for ``B`` stacked instances of one MPC problem.

    Every buffer gains a leading batch axis — states are ``(B, N, n)`` and
    inputs ``(B, N-1, m)`` — and the four residual fields become ``(B,)``
    arrays holding per-instance values.
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

    def set_reference(self, Xref: np.ndarray, Uref: np.ndarray = None) -> None:
        """Set tracking references, broadcasting shared shapes.

        Accepted ``Xref`` shapes (``Uref`` is analogous with ``N-1`` and ``m``):

        * ``(n,)`` — one goal state shared by every instance and knot point,
        * ``(N, n)`` — one trajectory shared by every instance,
        * ``(B, n)`` — a per-instance goal state broadcast over the horizon,
        * ``(B, N, n)`` — fully per-instance trajectories.

        When ``B == N`` a 2-D array is interpreted as the shared-trajectory
        case; pass the explicit 3-D shape to disambiguate.
        """
        self.Xref[...] = self._broadcast_reference(
            Xref, self.horizon, self.state_dim, "Xref")
        if Uref is not None:
            self.Uref[...] = self._broadcast_reference(
                Uref, self.horizon - 1, self.input_dim, "Uref")

    def _broadcast_reference(self, ref: np.ndarray, length: int, width: int,
                             name: str) -> np.ndarray:
        ref = np.asarray(ref, dtype=np.float64)
        if ref.ndim == 1 and ref.shape == (width,):
            return np.broadcast_to(ref, (self.batch, length, width))
        if ref.ndim == 2 and ref.shape == (length, width):
            return np.broadcast_to(ref, (self.batch, length, width))
        if ref.ndim == 2 and ref.shape == (self.batch, width):
            return np.broadcast_to(ref[:, None, :], (self.batch, length, width))
        if ref.shape == (self.batch, length, width):
            return ref
        raise ValueError(
            "{} must have shape ({w},), ({l}, {w}), ({b}, {w}), or "
            "({b}, {l}, {w}); got {s}".format(
                name, w=width, l=length, b=self.batch, s=ref.shape))

    # -- per-instance views -----------------------------------------------------
    def instance_snapshot(self, index: int) -> Dict[str, np.ndarray]:
        """Deep copy of one instance's buffers (scalar-workspace shapes)."""
        return {name: getattr(self, name)[index].copy()
                for name in WORKSPACE_BUFFERS}

    @property
    def max_residual(self) -> np.ndarray:
        """Per-instance worst residual, shape ``(B,)``."""
        return np.max(np.stack([getattr(self, name)
                                for name in RESIDUAL_FIELDS]), axis=0)
