"""TinyMPC kernels.

The paper breaks TinyMPC into three kernel classes (Section 3.1):

* **Iterative operations** with loop-carried dependencies
  (``forward_pass_*``, ``backward_pass_*``, ``update_linear_cost_4``),
* **Elementwise operations** on full-horizon vectors
  (``update_slack_*``, ``update_dual_1``, ``update_linear_cost_1..3``),
* **Global reductions** (the four residual kernels).

Every kernel exists in two forms here:

* a *fast* numpy implementation used by the closed-loop solver
  (:mod:`repro.tinympc.solver`), and
* a *matlib* implementation that routes through :mod:`repro.matlib` so the
  operator sequence can be traced, optimized by the codegen flow, and timed
  on the architecture models.

``tests/tinympc/test_kernels.py`` asserts the two forms agree.

Both solvers run an ADMM iteration as exactly two calls through this
module's attributes: :func:`iteration_prelude`, then :func:`backward_pass`
unless the solve has converged.  Those two names, :data:`SOLVER_KERNELS`,
are the only ones a kernel backend replaces (the C backend in
:mod:`repro.tinympc.compiled_c`, the pre-refactor reference in
:mod:`repro.tinympc.naive`); the per-stage kernels below are the numpy
prelude's building blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .. import matlib as ml
from ..matlib import Mat, kernel_scope
from .cache import LQRCache
from .problem import MPCProblem
from .workspace import TinyMPCWorkspace

__all__ = [
    "KernelClass",
    "KERNEL_CLASSES",
    "ITERATIVE_KERNELS",
    "ELEMENTWISE_KERNELS",
    "REDUCTION_KERNELS",
    "ALL_KERNELS",
    "forward_pass",
    "backward_pass",
    "update_slack",
    "update_dual",
    "update_linear_cost",
    "update_residuals",
    "compute_residuals",
    "iteration_prelude",
    "admm_iteration",
    "SOLVER_KERNELS",
    "build_iteration_program",
    "kernel_flop_breakdown",
]


# ---------------------------------------------------------------------------
# Kernel registry
# ---------------------------------------------------------------------------

KernelClass = str

ITERATIVE_KERNELS: Tuple[str, ...] = (
    "forward_pass_1",
    "forward_pass_2",
    "backward_pass_1",
    "backward_pass_2",
    "update_linear_cost_4",
)

ELEMENTWISE_KERNELS: Tuple[str, ...] = (
    "update_slack_1",
    "update_slack_2",
    "update_dual_1",
    "update_linear_cost_1",
    "update_linear_cost_2",
    "update_linear_cost_3",
)

REDUCTION_KERNELS: Tuple[str, ...] = (
    "primal_residual_state",
    "dual_residual_state",
    "primal_residual_input",
    "dual_residual_input",
)

ALL_KERNELS: Tuple[str, ...] = ITERATIVE_KERNELS + ELEMENTWISE_KERNELS + REDUCTION_KERNELS

KERNEL_CLASSES: Dict[str, KernelClass] = {}
KERNEL_CLASSES.update({name: "iterative" for name in ITERATIVE_KERNELS})
KERNEL_CLASSES.update({name: "elementwise" for name in ELEMENTWISE_KERNELS})
KERNEL_CLASSES.update({name: "reduction" for name in REDUCTION_KERNELS})


# ---------------------------------------------------------------------------
# Fast (numpy) kernel implementations
# ---------------------------------------------------------------------------
#
# These operate on either workspace layout: the scalar ``(N, n)`` arrays of
# :class:`TinyMPCWorkspace` or the ``(B, N, n)`` arrays of
# :class:`~repro.tinympc.workspace.BatchTinyMPCWorkspace`.  Both store their
# buffers step-major, so knot point ``i`` is one contiguous slab, ``(k,)``
# on the scalar layout and ``(B, k)`` on the batched one, and the per-step
# GEMVs are written as right-multiplications (``x @ A.T``): one loop serves
# both layouts, and the batched case turns every GEMV into a single
# ``(B, k) @ (k, k)`` GEMM across all instances.  The elementwise kernels
# run over the workspace's (state | input) pair rows, one ufunc call per
# pair.
#
# After the workspace's :class:`~repro.tinympc.workspace.SolveScratch` is
# built (first kernel call), the steady-state iteration allocates **zero**
# numpy buffers: every matmul/ufunc writes into preallocated scratch or a
# workspace buffer via ``out=``.  The kernels preserve the pre-refactor
# floating-point operation order and the shape of every BLAS call exactly,
# so results are bit-for-bit identical to :mod:`repro.tinympc.naive`
# (enforced by ``tests/tinympc/test_hotpath_exact.py``).  Three exactness
# lemmas make the fused forms legal:
#
# * ``out=`` only changes where a result is stored, never its value;
# * IEEE-754 rounding is sign-symmetric, so a matmul against a pre-negated
#   operand (``cache.neg_KinfT``, ``problem.neg_Q`` ...) equals negating the
#   matmul result, bit for bit;
# * ``np.clip(a, lo, hi)`` is definitionally ``minimum(maximum(a, lo), hi)``
#   (exact selections, no rounding), which avoids clip's internal broadcast
#   temporary for array bounds.

def forward_pass(ws: TinyMPCWorkspace, cache: LQRCache) -> None:
    """Roll the trajectory forward with the cached LQR feedback.

    ``forward_pass_1``: u[i] = -Kinf x[i] - d[i]
    ``forward_pass_2``: x[i+1] = A x[i] + B u[i]

    The per-step GEMVs go through ``np.matmul`` with a positional ``out``
    against the cached transposed/negated operators (``np.dot`` is faster
    to dispatch but its low bits depend on operand layout, so it cannot
    honor the bit-for-bit contract).  Every step slab is contiguous on both
    layouts, so ufunc results land straight in the workspace: five numpy
    calls per knot point.
    """
    problem = ws.problem
    s = ws.scratch
    At, Bt, neg_KinfT = problem.AT, problem.BT, cache.neg_KinfT
    t_m, t_n, t_n2 = s.vec_m, s.vec_n, s.vec_n2
    mm, add, subtract = np.matmul, np.add, np.subtract
    for x_i, x_next, u_i, d_i in s.fwd_steps:
        mm(x_i, neg_KinfT, t_m)
        subtract(t_m, d_i, u_i)
        mm(x_i, At, t_n)
        mm(u_i, Bt, t_n2)
        add(t_n, t_n2, x_next)


def _verify_fused_kr(ws: TinyMPCWorkspace, Kinf: np.ndarray) -> bool:
    """Is the one-shot ``r @ Kinf`` precompute bit-identical on this BLAS?

    Only meaningful for the *batched* layout, where the fusion is sound by
    construction: the step-major ``(N-1, B, m) @ (m, n)`` matmul runs the
    same 2-D GEMM per step slab — identical operand strides, identical
    values — as the per-step ``r[i] @ Kinf`` products it replaces, so this
    probe is a belt-and-braces guard for exotic BLAS dispatch.

    The scalar layout must **not** take the fused path at all: there the
    per-step product is a GEMV while the fused form is a GEMM, and on
    FMA-using BLAS builds the two can differ by an ulp *value-dependently*
    (fused multiply-add changes rounding without changing accumulation
    order), so no finite probe can prove agreement.  Found by the
    randomized-shape sweep in ``tests/tinympc/test_kernel_bitequality_props
    .py``.  Runs once per (workspace, cache) pair, at warmup.
    """
    probe = np.empty_like(ws.scratch.r)
    flat = probe.reshape(-1)
    flat[...] = np.arange(1.0, flat.size + 1.0)
    np.multiply(flat, 0.61803398875, out=flat)
    np.mod(flat, 1.0, out=flat)
    np.subtract(flat, 0.5, out=flat)
    fused = np.matmul(probe, Kinf)
    stepwise = np.stack([step @ Kinf for step in probe])
    return bool(np.array_equal(fused, stepwise))


def backward_pass(ws: TinyMPCWorkspace, cache: LQRCache) -> None:
    """Backward Riccati-gradient recursion over the horizon.

    ``backward_pass_1``: d[i] = Quu_inv (B' p[i+1] + r[i])
    ``backward_pass_2``: p[i] = q[i] + AmBKt p[i+1] - Kinf' r[i]

    One loop serves both layouts: every step slab is contiguous, so each
    knot point is six numpy calls.  ``r`` never changes inside the
    recursion, so on the batched layout the ``Kinf' r[i]`` terms of every
    knot point are hoisted into one step-major matmul (exact per slab — see
    :func:`_verify_fused_kr`, which double-checks at warmup).  The scalar
    layout always takes the per-step fallback: its naive reference is a
    GEMV, and GEMV-vs-GEMM agreement is value-dependent under FMA, so the
    hoist cannot honor the bit-for-bit contract there.  (The compiled
    backends re-enable the scalar hoist: their loop order is explicit and
    FMA contraction is off, so hoisting per-step products out of the
    recursion is literally the same instruction sequence — the
    probe-soundness problem only exists when BLAS picks the kernel.  It
    must stay disabled on *this* numpy path.)
    """
    s = ws.scratch
    B = ws.problem.B
    Quu_invT, AmBKtT, Kinf = cache.Quu_invT, cache.AmBKtT, cache.Kinf
    if s.kr_cache is not cache:
        s.kr_ok = (not s.is_scalar) and _verify_fused_kr(ws, Kinf)
        s.kr_cache = cache
    fused = s.kr_ok
    t_m, t_n, t_n2 = s.vec_m, s.vec_n, s.vec_n2
    mm, add, subtract = np.matmul, np.add, np.subtract
    if fused:
        mm(s.r, Kinf, s.kr)
    for p_next, p_i, d_i, q_i, r_i, kr_i in s.bwd_steps:
        mm(p_next, B, t_m)
        add(t_m, r_i, t_m)
        mm(t_m, Quu_invT, d_i)
        mm(p_next, AmBKtT, t_n)
        add(q_i, t_n, t_n)
        if not fused:
            kr_i = mm(r_i, Kinf, t_n2)
        subtract(t_n, kr_i, p_i)


def update_slack(ws: TinyMPCWorkspace) -> None:
    """Project the (primal + dual) iterates onto the box constraints.

    ``update_slack_1``: znew = clip(u + y, u_min, u_max)
    ``update_slack_2``: vnew = clip(x + g, x_min, x_max)

    Both updates run as one ufunc call per stage over the pair rows
    ([x|u] + [g|y] -> [vnew|znew], then the two bounds).  ``clip`` is definitionally
    ``minimum(maximum(., lo), hi)`` — exact selections, identical bits —
    and the two-ufunc form against the scratch's full-shape bounds runs
    without clip's internal broadcast temporary.
    """
    s = ws.scratch
    vz_new = s.vz_new
    np.add(s.xu, s.gy, vz_new)
    np.maximum(vz_new, s.lo, out=vz_new)
    np.minimum(vz_new, s.hi, out=vz_new)


def update_dual(ws: TinyMPCWorkspace) -> None:
    """Scaled dual ascent step.

    ``update_dual_1``: y += u - znew ; g += x - vnew

    This kernel is pure ufunc traffic, so at scalar shape (36 + 120
    elements) per-call dispatch overhead was a measurable fraction of its
    cost — enough to bench *slower* than the naive expression (0.87x
    before the pairing).  The workspace stores (x, u), (vnew, znew) and
    (g, y) as pair rows of one block (see ``TinyMPCWorkspace.pairs``), so
    both updates run as a single subtract and a single add over each flat
    row — two ufunc dispatches instead of four.  The per-element
    arithmetic is exactly the naive form's (the updates are independent
    elementwise ops, so fusing their iteration spaces cannot change any
    bit).
    """
    s = ws.scratch
    tmp = s.pair_tmp
    np.subtract(s.xu, s.vz_new, tmp)
    np.add(s.gy, tmp, s.gy)


def update_linear_cost(ws: TinyMPCWorkspace, cache: LQRCache) -> None:
    """Refresh the linear cost terms from references, slacks, and duals.

    ``update_linear_cost_1``: r = -Uref R - rho (znew - y)
    ``update_linear_cost_2``: q = -(Xref Q)
    ``update_linear_cost_3``: q -= rho (vnew - g)
    ``update_linear_cost_4``: p[N-1] = -(Xref[N-1] Pinf) - rho (vnew[N-1] - g[N-1])

    The whole-horizon products stay on ``np.matmul`` over the public
    ``(B, N, k)`` views, so each is the same per-instance GEMM the naive
    form makes (3-D ``np.dot`` takes a different BLAS path with different
    low bits); the leading minus is folded into ``problem.neg_R`` /
    ``problem.neg_Q`` / ``cache.neg_Pinf``.  The rho updates of ``q`` and
    ``r`` run together, one ufunc call per stage over the pair rows.
    """
    problem = ws.problem
    s = ws.scratch
    rho = problem.rho
    tmp = s.pair_tmp
    np.matmul(ws.Uref, problem.neg_R, out=ws.r)
    np.matmul(ws.Xref, problem.neg_Q, out=ws.q)
    np.subtract(s.vz_new, s.gy, tmp)
    np.multiply(tmp, rho, tmp)
    np.subtract(s.qr, tmp, s.qr)
    t_n, t_n2 = s.vec_n, s.vec_n2
    np.matmul(s.Xref_last, cache.neg_Pinf, t_n)
    np.subtract(s.vnew_last, s.g_last, t_n2)
    np.multiply(t_n2, rho, t_n2)
    np.subtract(t_n, t_n2, s.p_last)


def update_residuals(ws: TinyMPCWorkspace) -> None:
    """Global-maximum primal and dual residuals (Algorithm 3), in place.

    Writes the workspace's preallocated ``(4, *lead)`` residual block and
    returns nothing — this is the form both solver hot loops call.  On a
    batched workspace each residual is computed per instance, so the four
    reduction kernels become length-``B`` vectors of maxima.

    The primal ([x-vnew|u-znew]) and dual ([v-vnew|z-znew]) differences
    are two subtracts over the pair rows into one block; each half of that
    block (state, input) then reduces over the step axis first and, after
    a vector-major copy, over the vector axis (one reduction over the step
    and vector axes of a step-major array at once is about 4x slower).
    Maxima are exact, so the reduction order cannot change a bit.  The
    same scratch serves both layouts, so scalar and batch-of-one residuals
    take the identical code path and agree exactly.
    """
    s = ws.scratch
    diff = s.diff
    np.subtract(s.xu, s.vz_new, diff[0])
    np.subtract(s.vz, s.vz_new, diff[1])
    np.abs(diff, diff)
    for steps, step_max, moved, vector_major, rows in s.residual_halves:
        steps.max(1, out=step_max)
        np.copyto(vector_major, moved)
        vector_major.max(1, out=rows)
    np.multiply(s.residual_dual, ws.problem.rho, s.residual_dual)


def compute_residuals(ws: TinyMPCWorkspace) -> Dict[str, float]:
    """:func:`update_residuals` plus a detached residual dict (public API).

    The returned values are snapshots — floats for scalar workspaces,
    copied ``(B,)`` arrays for batched ones — so later iterations never
    mutate a caller's saved dict (matching the pre-refactor behavior,
    where every call rebound the fields to fresh arrays).
    """
    update_residuals(ws)
    return {name: (value.copy() if isinstance(value, np.ndarray) else value)
            for name, value in ws.residuals().items()}


def iteration_prelude(ws: TinyMPCWorkspace, cache: LQRCache) -> None:
    """Everything in one ADMM iteration *except* the backward pass.

    Forward pass, slack, dual, linear cost, the residual reductions, then
    the v/z slack-iterate copy: the prefix both solver loops run before
    checking termination.
    """
    forward_pass(ws, cache)
    update_slack(ws)
    update_dual(ws)
    update_linear_cost(ws, cache)
    update_residuals(ws)
    # Keep previous slack iterates for the next dual residual.
    s = ws.scratch
    np.copyto(s.vz, s.vz_new)


# The two calls an ADMM iteration makes, and the only attributes of this
# module a kernel backend replaces.
SOLVER_KERNELS: Tuple[str, ...] = ("iteration_prelude", "backward_pass")


def admm_iteration(ws: TinyMPCWorkspace, cache: LQRCache) -> None:
    """One full ADMM iteration: the two calls the solver loops make.

    This is the unit the perf-regression harness times and allocation-checks
    (``benchmarks/test_kernel_hotpath.py``): after the first call builds the
    workspace scratch, steady-state calls allocate zero numpy buffers.  Both
    calls resolve through the module attributes, so it runs whichever
    backend is installed.
    """
    iteration_prelude(ws, cache)
    backward_pass(ws, cache)


# ---------------------------------------------------------------------------
# matlib (traced) kernel implementations
# ---------------------------------------------------------------------------

class _MatBuffers:
    """Mat views of the workspace, problem, and cache used for tracing."""

    def __init__(self, ws: TinyMPCWorkspace, cache: LQRCache) -> None:
        problem = ws.problem
        self.problem = problem
        self.cache = cache
        # Problem/cache constants (scratchpad-resident in the Gemmini mapping).
        self.Adyn = Mat(problem.A, name="Adyn")
        self.Bdyn = Mat(problem.B, name="Bdyn")
        # Mat() copies its input, so the cached transpose views are wrapped
        # directly instead of materializing a second `.T.copy()` per trace.
        self.BdynT = Mat(problem.BT, name="BdynT")
        self.Q = Mat(problem.Q, name="Q")
        self.R = Mat(problem.R, name="R")
        self.Kinf = Mat(cache.Kinf, name="Kinf")
        self.KinfT = Mat(cache.KinfT, name="KinfT")
        self.Pinf = Mat(cache.Pinf, name="Pinf")
        self.Quu_inv = Mat(cache.Quu_inv, name="Quu_inv")
        self.AmBKt = Mat(cache.AmBKt, name="AmBKt")
        self.u_min = Mat(problem.u_min, name="u_min")
        self.u_max = Mat(problem.u_max, name="u_max")
        self.x_min = Mat(problem.x_min, name="x_min")
        self.x_max = Mat(problem.x_max, name="x_max")
        # Horizon-indexed workspace columns.
        N = ws.horizon
        self.x = [Mat(ws.x[i], name="x[{}]".format(i)) for i in range(N)]
        self.u = [Mat(ws.u[i], name="u[{}]".format(i)) for i in range(N - 1)]
        self.q = [Mat(ws.q[i], name="q[{}]".format(i)) for i in range(N)]
        self.r = [Mat(ws.r[i], name="r[{}]".format(i)) for i in range(N - 1)]
        self.p = [Mat(ws.p[i], name="p[{}]".format(i)) for i in range(N)]
        self.d = [Mat(ws.d[i], name="d[{}]".format(i)) for i in range(N - 1)]
        self.v = [Mat(ws.v[i], name="v[{}]".format(i)) for i in range(N)]
        self.vnew = [Mat(ws.vnew[i], name="vnew[{}]".format(i)) for i in range(N)]
        self.z = [Mat(ws.z[i], name="z[{}]".format(i)) for i in range(N - 1)]
        self.znew = [Mat(ws.znew[i], name="znew[{}]".format(i)) for i in range(N - 1)]
        self.g = [Mat(ws.g[i], name="g[{}]".format(i)) for i in range(N)]
        self.y = [Mat(ws.y[i], name="y[{}]".format(i)) for i in range(N - 1)]
        self.Xref = [Mat(ws.Xref[i], name="Xref[{}]".format(i)) for i in range(N)]
        self.Uref = [Mat(ws.Uref[i], name="Uref[{}]".format(i)) for i in range(N - 1)]

    def write_back(self, ws: TinyMPCWorkspace) -> None:
        """Copy the Mat values back into the numpy workspace."""
        for i in range(ws.horizon):
            ws.x[i] = self.x[i].data
            ws.q[i] = self.q[i].data
            ws.p[i] = self.p[i].data
            ws.v[i] = self.v[i].data
            ws.vnew[i] = self.vnew[i].data
            ws.g[i] = self.g[i].data
        for i in range(ws.horizon - 1):
            ws.u[i] = self.u[i].data
            ws.r[i] = self.r[i].data
            ws.d[i] = self.d[i].data
            ws.z[i] = self.z[i].data
            ws.znew[i] = self.znew[i].data
            ws.y[i] = self.y[i].data


def _traced_forward_pass(buf: _MatBuffers, horizon: int) -> None:
    for i in range(horizon - 1):
        with kernel_scope("forward_pass_1"):
            Kx = ml.gemv(buf.Kinf, buf.x[i])
            neg_Kx = ml.negate(Kx)
            ml.sub(neg_Kx, buf.d[i], out=buf.u[i])
        with kernel_scope("forward_pass_2"):
            Ax = ml.gemv(buf.Adyn, buf.x[i])
            Bu = ml.gemv(buf.Bdyn, buf.u[i])
            ml.add(Ax, Bu, out=buf.x[i + 1])


def _traced_backward_pass(buf: _MatBuffers, horizon: int) -> None:
    for i in range(horizon - 2, -1, -1):
        with kernel_scope("backward_pass_1"):
            Btp = ml.gemv(buf.BdynT, buf.p[i + 1])
            Btp_r = ml.add(Btp, buf.r[i])
            ml.gemv(buf.Quu_inv, Btp_r, out=buf.d[i])
        with kernel_scope("backward_pass_2"):
            Ap = ml.gemv(buf.AmBKt, buf.p[i + 1])
            Kr = ml.gemv(buf.KinfT, buf.r[i])
            q_plus_Ap = ml.add(buf.q[i], Ap)
            ml.sub(q_plus_Ap, Kr, out=buf.p[i])


def _stack(mats, name: str) -> Mat:
    """Stack per-knot-point vectors into one whole-horizon buffer.

    TinyMPC stores trajectories as dense (dim x N) matrices, so the
    elementwise and reduction kernels operate on the full horizon at once —
    the "larger tensors" (~40-120 elements) the paper says vector hardware
    and register grouping exploit.
    """
    return Mat(np.concatenate([m.data for m in mats]), name=name)


def _scatter(stacked: Mat, mats) -> None:
    """Write a stacked result back into the per-knot-point buffers."""
    width = mats[0].data.shape[0]
    for index, mat in enumerate(mats):
        mat.data[...] = stacked.data[index * width:(index + 1) * width]


def _tile_bound(bound: Mat, count: int, name: str) -> Mat:
    return Mat(np.tile(bound.data, count), name=name)


def _traced_update_slack(buf: _MatBuffers, horizon: int) -> None:
    with kernel_scope("update_slack_1"):
        u_all = _stack(buf.u, "u")
        y_all = _stack(buf.y, "y")
        uy = ml.add(u_all, y_all)
        znew_all = ml.clip(uy, _tile_bound(buf.u_min, horizon - 1, "u_min"),
                           _tile_bound(buf.u_max, horizon - 1, "u_max"),
                           out=Mat(np.zeros_like(uy.data), name="znew"))
        _scatter(znew_all, buf.znew)
    with kernel_scope("update_slack_2"):
        x_all = _stack(buf.x, "x")
        g_all = _stack(buf.g, "g")
        xg = ml.add(x_all, g_all)
        vnew_all = ml.clip(xg, _tile_bound(buf.x_min, horizon, "x_min"),
                           _tile_bound(buf.x_max, horizon, "x_max"),
                           out=Mat(np.zeros_like(xg.data), name="vnew"))
        _scatter(vnew_all, buf.vnew)


def _traced_update_dual(buf: _MatBuffers, horizon: int) -> None:
    with kernel_scope("update_dual_1"):
        u_all = _stack(buf.u, "u")
        znew_all = _stack(buf.znew, "znew")
        y_all = _stack(buf.y, "y")
        du = ml.sub(u_all, znew_all)
        y_new = ml.add(y_all, du, out=Mat(np.zeros_like(y_all.data), name="y"))
        _scatter(y_new, buf.y)
        x_all = _stack(buf.x, "x")
        vnew_all = _stack(buf.vnew, "vnew")
        g_all = _stack(buf.g, "g")
        dx = ml.sub(x_all, vnew_all)
        g_new = ml.add(g_all, dx, out=Mat(np.zeros_like(g_all.data), name="g"))
        _scatter(g_new, buf.g)


def _is_diagonal(matrix: np.ndarray) -> bool:
    return bool(np.allclose(matrix, np.diag(np.diag(matrix))))


def _traced_update_linear_cost(buf: _MatBuffers, horizon: int) -> None:
    rho = buf.problem.rho
    diagonal_costs = _is_diagonal(buf.problem.R) and _is_diagonal(buf.problem.Q)
    with kernel_scope("update_linear_cost_1"):
        znew_all = _stack(buf.znew, "znew")
        y_all = _stack(buf.y, "y")
        zy = ml.sub(znew_all, y_all)
        if diagonal_costs:
            uref_all = _stack(buf.Uref, "Uref")
            r_diag = Mat(np.tile(np.diag(buf.problem.R), horizon - 1), name="R_diag")
            uR = ml.ewise_mul(uref_all, r_diag)
        else:
            uR = _stack([ml.gemv_t(buf.R, buf.Uref[i]) for i in range(horizon - 1)],
                        "UrefR")
        neg_uR = ml.negate(uR)
        r_new = ml.sub_scaled(neg_uR, rho, zy,
                              out=Mat(np.zeros_like(zy.data), name="r"))
        _scatter(r_new, buf.r)
    with kernel_scope("update_linear_cost_2"):
        if diagonal_costs:
            xref_all = _stack(buf.Xref, "Xref")
            q_diag = Mat(np.tile(np.diag(buf.problem.Q), horizon), name="Q_diag")
            xQ = ml.ewise_mul(xref_all, q_diag)
            q_new = ml.negate(xQ, out=Mat(np.zeros_like(xQ.data), name="q"))
            _scatter(q_new, buf.q)
        else:
            for i in range(horizon):
                xQ = ml.gemv_t(buf.Q, buf.Xref[i])
                ml.negate(xQ, out=buf.q[i])
    with kernel_scope("update_linear_cost_3"):
        q_all = _stack(buf.q, "q")
        vnew_all = _stack(buf.vnew, "vnew")
        g_all = _stack(buf.g, "g")
        vg = ml.sub(vnew_all, g_all)
        q_new = ml.sub_scaled(q_all, rho, vg,
                              out=Mat(np.zeros_like(q_all.data), name="q"))
        _scatter(q_new, buf.q)
    with kernel_scope("update_linear_cost_4"):
        xP = ml.gemv_t(buf.Pinf, buf.Xref[horizon - 1])
        neg_xP = ml.negate(xP)
        vg = ml.sub(buf.vnew[horizon - 1], buf.g[horizon - 1])
        ml.sub_scaled(neg_xP, rho, vg, out=buf.p[horizon - 1])


def _traced_residuals(buf: _MatBuffers, horizon: int) -> Dict[str, float]:
    rho = buf.problem.rho
    results: Dict[str, float] = {}
    with kernel_scope("primal_residual_state"):
        results["primal_residual_state"] = ml.max_abs_diff(
            _stack(buf.x, "x"), _stack(buf.vnew, "vnew"))
    with kernel_scope("dual_residual_state"):
        results["dual_residual_state"] = rho * ml.max_abs_diff(
            _stack(buf.v, "v"), _stack(buf.vnew, "vnew"))
    with kernel_scope("primal_residual_input"):
        results["primal_residual_input"] = ml.max_abs_diff(
            _stack(buf.u, "u"), _stack(buf.znew, "znew"))
    with kernel_scope("dual_residual_input"):
        results["dual_residual_input"] = rho * ml.max_abs_diff(
            _stack(buf.z, "z"), _stack(buf.znew, "znew"))
    return results


def run_traced_iteration(ws: TinyMPCWorkspace, cache: LQRCache,
                         write_back: bool = True) -> Dict[str, float]:
    """Execute one full ADMM iteration through matlib ops.

    The iteration order matches the fast solver.  When a matlib trace is
    active the operator sequence is recorded; the numerical results,
    residuals included, are written into ``ws``'s arrays when ``write_back``
    is true so tests can compare against :func:`forward_pass` et al.
    """
    buf = _MatBuffers(ws, cache)
    N = ws.horizon
    _traced_forward_pass(buf, N)
    _traced_update_slack(buf, N)
    _traced_update_dual(buf, N)
    _traced_update_linear_cost(buf, N)
    residuals = _traced_residuals(buf, N)
    _traced_backward_pass(buf, N)
    if write_back:
        buf.write_back(ws)
        for name, value in residuals.items():
            getattr(ws, name)[...] = value
    return residuals


def build_iteration_program(problem: MPCProblem, cache: LQRCache = None,
                            workspace: TinyMPCWorkspace = None,
                            name: str = "tinympc-iteration") -> ml.MatlibProgram:
    """Record the matlib program for one ADMM iteration.

    This is the "library-based" (unfused, per-operator) program that the
    code-generation flow optimizes and the architecture backends time.
    """
    from .cache import compute_cache

    if cache is None:
        cache = compute_cache(problem)
    if workspace is None:
        workspace = TinyMPCWorkspace(problem)
        rng = np.random.default_rng(0)
        workspace.x[0] = 0.1 * rng.standard_normal(problem.state_dim)
    with ml.tracing() as trace:
        run_traced_iteration(workspace, cache, write_back=False)
    return ml.MatlibProgram(trace, name=name)


def kernel_flop_breakdown(problem: MPCProblem, cache: LQRCache = None
                          ) -> Dict[str, int]:
    """Per-kernel FLOP counts for one ADMM iteration (paper Figure 1)."""
    program = build_iteration_program(problem, cache)
    breakdown = {name: 0 for name in ALL_KERNELS}
    breakdown.update(program.flops_by_kernel())
    return breakdown
