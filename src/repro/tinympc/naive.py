"""Pre-refactor TinyMPC kernels, kept as the hot path's reference.

These are the allocation-per-call numpy kernels exactly as they existed
before the zero-allocation rewrite of :mod:`repro.tinympc.kernels`: every
call builds its temporaries (and, historically, its transposed operands)
from scratch.  They are retained for two reasons:

* **Bit-for-bit regression proof** — ``tests/tinympc/test_hotpath_exact.py``
  runs full solves through both implementations and asserts the refactored
  kernels reproduce these trajectories *exactly* (``==``, no tolerances).
  The rewrite only changed where results are stored, never the operand
  memory layouts or the floating-point operation order, so the match holds
  on any BLAS.
* **Measured speedups** — the microbenchmarks in
  ``benchmarks/test_kernel_hotpath.py`` and the fleet-campaign comparison
  time the live kernels against these to quantify what the scratch arenas
  buy (reported in ``BENCH_kernels.json``).

:func:`use_naive_kernels` installs :func:`iteration_prelude_naive` and
:func:`backward_pass_naive` as the two solver calls of
:mod:`repro.tinympc.kernels` (:data:`~repro.tinympc.kernels.SOLVER_KERNELS`)
for the duration of a ``with`` block; both solvers make exactly those two
calls per iteration, so the swap covers the scalar solver, the batched
solver, and everything built on them (HIL loops, fleet campaigns), whatever
backend was installed before it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import kernels
from .cache import LQRCache
from .workspace import TinyMPCWorkspace

__all__ = [
    "forward_pass_naive",
    "backward_pass_naive",
    "update_slack_naive",
    "update_dual_naive",
    "update_linear_cost_naive",
    "update_residuals_naive",
    "iteration_prelude_naive",
    "use_naive_kernels",
]


def forward_pass_naive(ws: TinyMPCWorkspace, cache: LQRCache) -> None:
    """``forward_pass_1/2`` with per-call temporaries (pre-refactor)."""
    At, Bt = ws.problem.A.T, ws.problem.B.T
    KinfT = cache.Kinf.T
    x, u, d = ws.x, ws.u, ws.d
    for i in range(ws.horizon - 1):
        u[..., i, :] = -(x[..., i, :] @ KinfT) - d[..., i, :]
        x[..., i + 1, :] = x[..., i, :] @ At + u[..., i, :] @ Bt


def backward_pass_naive(ws: TinyMPCWorkspace, cache: LQRCache) -> None:
    """``backward_pass_1/2`` with per-call temporaries (pre-refactor)."""
    B = ws.problem.B
    Quu_invT, AmBKtT, Kinf = cache.Quu_inv.T, cache.AmBKt.T, cache.Kinf
    p, d, q, r = ws.p, ws.d, ws.q, ws.r
    for i in range(ws.horizon - 2, -1, -1):
        d[..., i, :] = (p[..., i + 1, :] @ B + r[..., i, :]) @ Quu_invT
        p[..., i, :] = (q[..., i, :] + p[..., i + 1, :] @ AmBKtT
                        - r[..., i, :] @ Kinf)


def update_slack_naive(ws: TinyMPCWorkspace) -> None:
    """``update_slack_1/2`` with per-call temporaries (pre-refactor)."""
    problem = ws.problem
    np.clip(ws.u + ws.y, problem.u_min, problem.u_max, out=ws.znew)
    np.clip(ws.x + ws.g, problem.x_min, problem.x_max, out=ws.vnew)


def update_dual_naive(ws: TinyMPCWorkspace) -> None:
    """``update_dual_1`` with per-call temporaries (pre-refactor)."""
    ws.y += ws.u - ws.znew
    ws.g += ws.x - ws.vnew


def update_linear_cost_naive(ws: TinyMPCWorkspace, cache: LQRCache) -> None:
    """``update_linear_cost_1..4`` with per-call temporaries (pre-refactor)."""
    problem = ws.problem
    rho = problem.rho
    ws.r[...] = -(ws.Uref @ problem.R) - rho * (ws.znew - ws.y)
    ws.q[...] = -(ws.Xref @ problem.Q)
    ws.q -= rho * (ws.vnew - ws.g)
    ws.p[..., -1, :] = (-(ws.Xref[..., -1, :] @ cache.Pinf)
                        - rho * (ws.vnew[..., -1, :] - ws.g[..., -1, :]))


def _horizon_max_abs(difference: np.ndarray) -> np.ndarray:
    return np.max(np.abs(difference), axis=(-2, -1))


def update_residuals_naive(ws: TinyMPCWorkspace) -> None:
    """The four reduction kernels with per-call temporaries (pre-refactor),
    stored into the workspace's preallocated residual outputs."""
    rho = ws.problem.rho
    ws.primal_residual_state[...] = _horizon_max_abs(ws.x - ws.vnew)
    ws.dual_residual_state[...] = rho * _horizon_max_abs(ws.v - ws.vnew)
    ws.primal_residual_input[...] = _horizon_max_abs(ws.u - ws.znew)
    ws.dual_residual_input[...] = rho * _horizon_max_abs(ws.z - ws.znew)


def iteration_prelude_naive(ws: TinyMPCWorkspace, cache: LQRCache) -> None:
    """:func:`repro.tinympc.kernels.iteration_prelude` on the pre-refactor
    kernels, in the same order."""
    forward_pass_naive(ws, cache)
    update_slack_naive(ws)
    update_dual_naive(ws)
    update_linear_cost_naive(ws, cache)
    update_residuals_naive(ws)
    ws.v[...] = ws.vnew
    ws.z[...] = ws.znew


@contextmanager
def use_naive_kernels():
    """Route both solvers through the pre-refactor kernels for a block.

    Used by the benchmark harness to measure the refactor against "current
    main" on identical workloads.  Not thread-safe (module-level swap).
    """
    saved = [getattr(kernels, name) for name in kernels.SOLVER_KERNELS]
    try:
        for name, replacement in zip(
                kernels.SOLVER_KERNELS,
                (iteration_prelude_naive, backward_pass_naive)):
            setattr(kernels, name, replacement)
        yield
    finally:
        for name, original in zip(kernels.SOLVER_KERNELS, saved):
            setattr(kernels, name, original)
