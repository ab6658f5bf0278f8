"""Batched TinyMPC: solve ``B`` instances of one MPC problem at once.

Design-space sweeps, HIL scenario grids, and Pareto experiments all solve
the *same* problem structure (one ``A``/``B``/``Q``/``R``/horizon) from many
initial states and references.  Looping a scalar
:class:`~repro.tinympc.solver.TinyMPCSolver` over those instances spends
most of its time in Python call overhead, because the per-knot-point tensors
are tiny (4-150 elements — the very characterization the paper builds on).

:class:`BatchTinyMPCSolver` stacks ``B`` instances into ``(B, N, n)``
workspaces (:class:`~repro.tinympc.workspace.BatchTinyMPCWorkspace`, stored
step-major) and runs each ADMM iteration through the *same* two kernel
calls the scalar solver makes (``kernels.iteration_prelude``, then
``kernels.backward_pass``), whose numpy forms vectorize over the batch
axis — a batch dimension of one is the existing solver.

Per-instance convergence is handled by masking: every iteration runs the
whole batch, but the moment an instance satisfies the termination test
(one comparison of the residual block against the tolerances and one
all-reduction) its rows are snapshotted, one gather per arena and one for
the residual block, and after the loop those snapshots are restored.
The result is numerically equivalent to stopping that instance's iteration
early, so batched and sequential solves agree to tight tolerances
(``tests/tinympc/test_batch.py`` asserts ``rtol=1e-10``), including
iteration counts and the warm-start state carried into the next solve.

The ``active`` mask of :meth:`BatchTinyMPCSolver.solve` additionally lets a
caller solve only a subset of instances while the rest keep their
warm-start state untouched.  The fleet scheduler
(:mod:`repro.fleet.scheduler`) gives each HIL episode of a batch group its
own instance for the whole run and solves every dispatch under that mask,
so each episode keeps its own warm start in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

import numpy as np

from . import kernels
from .cache import LQRCache, compute_cache
from .problem import MPCProblem
from .solver import SolverSettings, TinyMPCSolution
from .workspace import (
    COLD_ROWS,
    RESIDUAL_FIELDS,
    WORKSPACE_BUFFERS,
    BatchTinyMPCWorkspace,
)

__all__ = ["BatchTinyMPCSolution", "BatchTinyMPCSolver"]


@dataclass
class BatchTinyMPCSolution:
    """Result of one batched MPC solve over ``B`` instances.

    Arrays carry the batch axis first; ``iterations``, ``converged``,
    ``warm_started``, and ``active`` are per-instance vectors.  Entries for
    instances outside the solve's ``active`` mask are the (stale) values of
    their previous solve.
    """

    states: np.ndarray            # (B, N, n) predicted states
    inputs: np.ndarray            # (B, N-1, m) planned inputs
    iterations: np.ndarray        # (B,) ADMM iterations used (0 if inactive)
    converged: np.ndarray         # (B,) bool
    residuals: Dict[str, np.ndarray]   # each (B,)
    warm_started: np.ndarray      # (B,) bool
    active: np.ndarray            # (B,) bool — instances this solve updated

    @property
    def batch_size(self) -> int:
        return self.states.shape[0]

    def __len__(self) -> int:
        return self.batch_size

    @property
    def control(self) -> np.ndarray:
        """The first planned input of every instance, shape ``(B, m)``."""
        return self.inputs[:, 0, :]

    def instance(self, index: int) -> TinyMPCSolution:
        """Extract one instance as a scalar :class:`TinyMPCSolution`."""
        return TinyMPCSolution(
            states=self.states[index].copy(),
            inputs=self.inputs[index].copy(),
            iterations=int(self.iterations[index]),
            converged=bool(self.converged[index]),
            residuals={name: float(values[index])
                       for name, values in self.residuals.items()},
            warm_started=bool(self.warm_started[index]),
        )

    def __iter__(self) -> Iterator[TinyMPCSolution]:
        return (self.instance(index) for index in range(self.batch_size))


class BatchTinyMPCSolver:
    """ADMM MPC solver for a batch of instances of one problem.

    The batch shares a single :class:`~repro.tinympc.cache.LQRCache` (the
    instances differ only in initial state and reference) and one stacked
    workspace, so every kernel runs as one numpy call per horizon step
    instead of one per instance per horizon step.
    """

    def __init__(self, problem: MPCProblem, batch_size: int,
                 settings: Optional[SolverSettings] = None,
                 cache: Optional[LQRCache] = None) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.problem = problem
        self.batch_size = batch_size
        self.settings = settings or SolverSettings()
        self.cache = cache or compute_cache(problem)
        self.workspace = BatchTinyMPCWorkspace(problem, batch=batch_size)
        self._warm = np.zeros(batch_size, dtype=bool)
        # Freeze/restore scratch: converged (or inactive) instances park
        # their rows of the two arenas and the residual block here while the
        # rest of the batch keeps iterating.
        ws = self.workspace
        self._stores = tuple(np.empty(block.shape) for block in
                             (ws.state_arena, ws.input_arena,
                              ws.residual_block))
        # Preallocated per-iteration mask scratch so the steady-state solve
        # loop allocates nothing (see the zero-allocation benchmark).
        self._live = np.empty(batch_size, dtype=bool)
        self._newly = np.empty(batch_size, dtype=bool)
        # The termination test's tolerance per residual-block row, and the
        # per-row comparison it feeds.
        self._tolerances = np.array(
            [[self.settings.abs_dual_tolerance if name.startswith("dual")
              else self.settings.abs_primal_tolerance]
             for name in RESIDUAL_FIELDS])
        self._below = np.empty((len(RESIDUAL_FIELDS), batch_size), dtype=bool)
        self.total_batch_solves = 0
        self.total_instance_solves = 0
        self.total_iterations = 0

    # -- public API ---------------------------------------------------------
    def reset(self) -> None:
        """Forget all warm-start state for every instance."""
        self.workspace.reset()
        self._warm[:] = False

    def set_reference(self, Xref: np.ndarray) -> None:
        """Set tracking references (shared or per-instance shapes)."""
        self.workspace.set_reference(Xref)

    def solve(self, x0: np.ndarray, Xref: Optional[np.ndarray] = None,
              active: Optional[np.ndarray] = None) -> BatchTinyMPCSolution:
        """Solve the batch from initial states ``x0`` (``(B, n)`` or ``(n,)``).

        ``active`` optionally masks the solve to a subset of instances: rows
        outside the mask are left exactly as their previous solve finished
        (workspace, warm-start state, and residuals untouched), and their
        solution entries are stale.  Rows of ``x0``/``Xref`` corresponding to
        inactive instances are ignored.

        As in the scalar solver, the workspace inputs are clipped to the
        input box in place on return, so the solution and the carried
        warm-start state agree.
        """
        ws = self.workspace
        settings = self.settings
        B = self.batch_size
        if active is None:
            active = np.ones(B, dtype=bool)
        else:
            active = np.asarray(active, dtype=bool)
            if active.shape != (B,):
                raise ValueError("active must have shape ({},)".format(B))
            if not active.any():
                raise ValueError("at least one instance must be active")
        frozen = ~active
        if frozen.any():
            # Park inactive rows before references/initial states are written.
            self._save(np.flatnonzero(frozen))

        if Xref is not None:
            self.set_reference(Xref)
        warm = active & self._warm if settings.warm_start else np.zeros(B, bool)
        cold_index = np.flatnonzero(active & ~warm)
        if cold_index.size:
            ws.state_arena[COLD_ROWS, :, cold_index] = 0.0
            ws.input_arena[COLD_ROWS, :, cold_index] = 0.0
        ws.set_initial_state(x0)

        iterations = np.zeros(B, dtype=int)
        converged = np.zeros(B, dtype=bool)
        live, newly = self._live, self._newly
        # The two kernel calls resolve through the module, where a backend
        # may replace them; the mask bookkeeping reuses preallocated scratch
        # to keep the steady-state iteration allocation-free.
        for iteration in range(1, settings.max_iterations + 1):
            np.logical_not(converged, out=live)
            np.logical_and(active, live, out=live)
            iterations[live] = iteration
            kernels.iteration_prelude(ws, self.cache)
            self._converged_mask_into(newly)
            np.logical_and(live, newly, out=newly)
            if newly.any():
                # Snapshot at exactly the state the scalar solver stops in.
                self._save(np.flatnonzero(newly))
                converged |= newly
                frozen |= newly
                if not (active & ~converged).any():
                    break
            kernels.backward_pass(ws, self.cache)

        if frozen.any():
            self._restore(np.flatnonzero(frozen))
        ws.clip_inputs()

        self._warm[active] = True
        self.total_batch_solves += 1
        self.total_instance_solves += int(active.sum())
        self.total_iterations += int(iterations[active].sum())
        return BatchTinyMPCSolution(
            states=ws.x.copy(),
            inputs=ws.u.copy(),
            iterations=iterations,
            converged=converged,
            residuals={name: np.array(getattr(ws, name), dtype=np.float64,
                                      copy=True)
                       for name in RESIDUAL_FIELDS},
            warm_started=warm.copy(),
            active=active.copy(),
        )

    # -- per-slot state copies ----------------------------------------------
    #
    # Nothing in the package calls these: every fleet episode keeps one slot
    # for its whole run.  They stay because perfbench/tracer.py patches them
    # by name (its ``tinympc.slot_io`` layer).  The round trip copies raw
    # workspace rows, so an exported slot imports back bit-for-bit.

    def export_slot(self, index: int,
                    out: Optional[Dict[str, np.ndarray]] = None
                    ) -> Dict[str, np.ndarray]:
        """Copy one slot's carried solver state (for later ``import_slot``).

        The snapshot contains every workspace buffer plus the slot's
        warm-start flag under the reserved key ``"_warm"``.  Passing a
        previously exported state as ``out`` copies into its arrays in
        place instead of allocating a fresh snapshot.
        """
        ws = self.workspace
        if out is None:
            out = {name: getattr(ws, name)[index].copy()
                   for name in WORKSPACE_BUFFERS}
        else:
            for name in WORKSPACE_BUFFERS:
                np.copyto(out[name], getattr(ws, name)[index])
        out["_warm"] = bool(self._warm[index])
        return out

    def import_slot(self, index: int,
                    state: Optional[Dict[str, np.ndarray]] = None) -> None:
        """Load carried solver state into a slot (``None`` = fresh/cold slot).

        A fresh slot behaves exactly like an instance that has never solved:
        the next solve cold-starts it.
        """
        if state is None:
            for name in WORKSPACE_BUFFERS:
                getattr(self.workspace, name)[index] = 0.0
            self._warm[index] = False
            return
        for name in WORKSPACE_BUFFERS:
            getattr(self.workspace, name)[index] = state[name]
        self._warm[index] = bool(state["_warm"])

    # -- diagnostics ----------------------------------------------------------
    @property
    def average_iterations(self) -> float:
        if self.total_instance_solves == 0:
            return 0.0
        return self.total_iterations / self.total_instance_solves

    # -- internals -------------------------------------------------------------
    def _converged_mask_into(self, out: np.ndarray) -> None:
        """``out[b] = instance b satisfies the termination test`` (no allocs):
        every residual row below its tolerance."""
        np.less(self.workspace.residual_block, self._tolerances,
                out=self._below)
        np.logical_and.reduce(self._below, axis=0, out=out)

    def _save(self, index: np.ndarray) -> None:
        """Park rows ``index``: one gather per arena and the residual block."""
        ws = self.workspace
        state, inputs, residuals = self._stores
        state[:, :, index] = ws.state_arena[:, :, index]
        inputs[:, :, index] = ws.input_arena[:, :, index]
        residuals[:, index] = ws.residual_block[:, index]

    def _restore(self, index: np.ndarray) -> None:
        ws = self.workspace
        state, inputs, residuals = self._stores
        ws.state_arena[:, :, index] = state[:, :, index]
        ws.input_arena[:, :, index] = inputs[:, :, index]
        ws.residual_block[:, index] = residuals[:, index]
