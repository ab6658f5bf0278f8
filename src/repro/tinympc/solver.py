"""The TinyMPC ADMM solver.

This is the paper's target workload: an ADMM-based linear MPC solver whose
per-iteration work is the kernel set in :mod:`repro.tinympc.kernels`, run
as two calls: ``kernels.iteration_prelude``, then ``kernels.backward_pass``
unless the residuals already meet both tolerances.  The solver supports
warm starting (reusing the previous solution's primal, slack, and dual
iterates), which is what gives the compounding benefit the paper observes
when solve latency drops (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import kernels
from .cache import LQRCache, compute_cache
from .problem import MPCProblem
from .workspace import COLD_ROWS, TinyMPCWorkspace

__all__ = ["SolverSettings", "TinyMPCSolution", "TinyMPCSolver"]


@dataclass
class SolverSettings:
    """Iteration and termination settings (defaults follow TinyMPC)."""

    max_iterations: int = 10
    abs_primal_tolerance: float = 1e-3
    abs_dual_tolerance: float = 1e-3
    warm_start: bool = True

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class TinyMPCSolution:
    """Result of one MPC solve."""

    states: np.ndarray           # (N, n) predicted states
    inputs: np.ndarray           # (N-1, m) planned inputs
    iterations: int
    converged: bool
    residuals: Dict[str, float]
    warm_started: bool

    @property
    def control(self) -> np.ndarray:
        """The first planned input — the control actually applied."""
        return self.inputs[0]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else float("inf")


class TinyMPCSolver:
    """ADMM MPC solver with a pre-computed infinite-horizon LQR cache."""

    def __init__(self, problem: MPCProblem,
                 settings: Optional[SolverSettings] = None,
                 cache: Optional[LQRCache] = None) -> None:
        self.problem = problem
        self.settings = settings or SolverSettings()
        self.cache = cache or compute_cache(problem)
        self.workspace = TinyMPCWorkspace(problem)
        self._has_previous_solution = False
        self.total_iterations = 0
        self.total_solves = 0

    # -- public API ---------------------------------------------------------
    def reset(self) -> None:
        """Forget any warm-start state."""
        self.workspace.reset()
        self._has_previous_solution = False

    def set_reference(self, Xref: np.ndarray) -> None:
        """Set the tracking reference (a single goal state is broadcast)."""
        self.workspace.set_reference(Xref)

    def solve(self, x0: np.ndarray,
              Xref: Optional[np.ndarray] = None) -> TinyMPCSolution:
        """Solve the MPC problem from initial state ``x0``.

        When warm starting is enabled the previous solution's trajectories,
        slack, and dual variables are reused, which typically cuts the
        iteration count substantially once the reference changes slowly.

        On return the workspace inputs ``ws.u`` are clipped to the input box
        in place, so the returned :class:`TinyMPCSolution` and the warm-start
        state carried into the next solve are the same (feasible) trajectory.
        The clip never changes what the next solve computes — its first
        forward pass rewrites ``u`` from ``x`` and ``d`` — but it keeps every
        external reader of the workspace (snapshots, traced kernels, HIL
        benchmarks) consistent with the solution the controller applied.
        """
        ws = self.workspace
        settings = self.settings
        if Xref is not None:
            self.set_reference(Xref)
        warm = settings.warm_start and self._has_previous_solution
        if not warm:
            ws.state_arena[COLD_ROWS] = 0.0
            ws.input_arena[COLD_ROWS] = 0.0
        ws.set_initial_state(x0)

        iterations = 0
        converged = False
        # Both calls resolve through the module, where a backend
        # (repro.tinympc.compiled, repro.tinympc.naive) may replace them.
        for iteration in range(1, settings.max_iterations + 1):
            iterations = iteration
            kernels.iteration_prelude(ws, self.cache)
            converged = self._is_converged()
            if converged:
                break
            kernels.backward_pass(ws, self.cache)

        self._has_previous_solution = True
        self.total_iterations += iterations
        self.total_solves += 1
        # Clip in place so the workspace carries the same feasible inputs the
        # solution reports (see the docstring).
        ws.clip_inputs()
        return TinyMPCSolution(
            states=ws.x.copy(),
            inputs=ws.u.copy(),
            iterations=iterations,
            converged=converged,
            residuals=ws.residuals(),
            warm_started=warm,
        )

    # -- diagnostics ----------------------------------------------------------
    @property
    def average_iterations(self) -> float:
        if self.total_solves == 0:
            return 0.0
        return self.total_iterations / self.total_solves

    def _is_converged(self) -> bool:
        ws = self.workspace
        settings = self.settings
        return (ws.primal_residual_state < settings.abs_primal_tolerance
                and ws.primal_residual_input < settings.abs_primal_tolerance
                and ws.dual_residual_state < settings.abs_dual_tolerance
                and ws.dual_residual_input < settings.abs_dual_tolerance)
