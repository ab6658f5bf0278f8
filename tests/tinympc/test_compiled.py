"""Compiled kernel backend: selection, fallback, and solve equivalence.

The backend contract has three layers, each tested here:

* **selection** — ``resolve_backend`` / ``use_compiled_kernels`` install a
  compiled kernel set through the same module-attr seam the naive swap
  uses, restore cleanly, never raise on an unavailable backend, and honor
  ``REPRO_KERNEL_BACKEND`` at import (checked in a subprocess with cffi
  import-blocked, proving the no-toolchain fallback really lands on the
  numpy kernels with identical solves);
* **solve equivalence** — scalar and batched solvers under a compiled
  backend reproduce the numpy fast path's *discrete* outcomes exactly
  (iteration counts, convergence flags) with trajectories inside the
  documented matvec tolerance;
* **fleet integration** — a disturbance-recovery campaign run under a
  compiled backend reproduces the numpy campaign's discrete outcomes
  (recovered flags, recovery times) episode for episode, and the solver
  pool never hands a workspace across a backend switch.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.tinympc import (
    SolverSettings,
    TinyMPCSolver,
    BatchTinyMPCSolver,
    active_backend,
    available_backends,
    default_quadrotor_problem,
    kernel_backend_info,
    use_compiled_kernels,
    use_naive_kernels,
)
from repro.tinympc import kernels
from repro.tinympc.compiled import resolve_backend

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

_COMPILED_IMPL, _COMPILED_NAME = resolve_backend("auto")

needs_compiled = pytest.mark.skipif(
    _COMPILED_IMPL is None, reason="no compiled kernel backend available")


# ---------------------------------------------------------------------------
# Selection and fallback
# ---------------------------------------------------------------------------

class TestBackendSelection:
    def test_numpy_is_the_default_and_always_available(self):
        assert active_backend() == "numpy"
        info = available_backends()
        assert info["numpy"] == "always available"
        assert set(info) == {"numpy", "c"}

    def test_unknown_backend_falls_back_to_numpy(self):
        impl, resolved = resolve_backend("fortran77")
        assert impl is None and resolved == "numpy"
        with use_compiled_kernels("fortran77") as name:
            assert name == "numpy"
            assert active_backend() == "numpy"

    def test_context_restores_dispatch_attrs(self):
        before = {attr: getattr(kernels, attr)
                  for attr in kernels.SOLVER_KERNELS}
        with use_compiled_kernels("auto"):
            pass
        after = {attr: getattr(kernels, attr)
                 for attr in kernels.SOLVER_KERNELS}
        assert before == after
        assert active_backend() == "numpy"

    @needs_compiled
    def test_compiled_backend_installs_and_reports(self):
        with use_compiled_kernels(_COMPILED_NAME) as name:
            assert name == _COMPILED_NAME
            assert active_backend() == _COMPILED_NAME
            info = kernel_backend_info()
            assert info["name"] == _COMPILED_NAME
            assert info["threads"] == 1
        assert active_backend() == "numpy"

    def test_numpy_backend_reports_one_thread(self):
        assert active_backend() == "numpy"
        info = kernel_backend_info()
        assert info["name"] == "numpy"
        assert info["threads"] == 1

    @needs_compiled
    def test_naive_swap_neutralizes_compiled_backend(self):
        """``use_naive_kernels`` inside a compiled context puts the naive
        functions in both solver-call names and restores the C ones after
        the block — the bit-equality harness depends on the naive side
        being genuinely naive."""
        from repro.tinympc import naive
        with use_compiled_kernels(_COMPILED_NAME):
            with use_naive_kernels():
                assert kernels.iteration_prelude is \
                    naive.iteration_prelude_naive
                assert kernels.backward_pass is naive.backward_pass_naive
            assert kernels.iteration_prelude == \
                _COMPILED_IMPL.iteration_prelude
            assert kernels.backward_pass == _COMPILED_IMPL.backward_pass
            assert active_backend() == _COMPILED_NAME


# ---------------------------------------------------------------------------
# Solver equivalence
# ---------------------------------------------------------------------------

def _solve_sequence(solver, x0s, goal):
    return [solver.solve(x0, Xref=goal) for x0 in x0s]


@needs_compiled
class TestSolverEquivalence:
    def test_scalar_solver_discrete_outcomes_match(self):
        problem = default_quadrotor_problem()
        settings = SolverSettings(max_iterations=30)
        rng = np.random.default_rng(42)
        goal = np.zeros(problem.state_dim)
        x0s = [0.2 * rng.standard_normal(problem.state_dim)
               for _ in range(5)]
        reference = _solve_sequence(TinyMPCSolver(problem, settings), x0s,
                                    goal)
        with use_compiled_kernels(_COMPILED_NAME):
            compiled_sols = _solve_sequence(TinyMPCSolver(problem, settings),
                                            x0s, goal)
        for ref, com in zip(reference, compiled_sols):
            assert com.iterations == ref.iterations
            assert com.converged == ref.converged
            np.testing.assert_allclose(com.states, ref.states,
                                       rtol=1e-9, atol=1e-11)
            np.testing.assert_allclose(com.inputs, ref.inputs,
                                       rtol=1e-9, atol=1e-11)

    def test_batch_solver_discrete_outcomes_match(self):
        problem = default_quadrotor_problem()
        settings = SolverSettings(max_iterations=30)
        rng = np.random.default_rng(7)
        goal = np.zeros(problem.state_dim)
        x0 = 0.2 * rng.standard_normal((6, problem.state_dim))
        ref = BatchTinyMPCSolver(problem, 6, settings=settings).solve(
            x0, Xref=goal)
        with use_compiled_kernels(_COMPILED_NAME):
            com = BatchTinyMPCSolver(problem, 6, settings=settings).solve(
                x0, Xref=goal)
        np.testing.assert_array_equal(com.iterations, ref.iterations)
        np.testing.assert_array_equal(com.converged, ref.converged)
        np.testing.assert_allclose(com.states, ref.states,
                                   rtol=1e-9, atol=1e-11)


# ---------------------------------------------------------------------------
# Unavailable-backend fallback (subprocess)
# ---------------------------------------------------------------------------

_FALLBACK_SCRIPT = r"""
import sys

class _BlockCffi:
    def find_spec(self, name, path=None, target=None):
        if name == "cffi" or name.startswith("cffi."):
            raise ImportError("cffi blocked for fallback test")
        return None

sys.meta_path.insert(0, _BlockCffi())
sys.path.insert(0, sys.argv[1])

import numpy as np
import repro.tinympc as tinympc

# REPRO_KERNEL_BACKEND=c was requested but cffi cannot import: the
# activation must land on the numpy kernels without raising.
assert tinympc.active_backend() == "numpy", tinympc.active_backend()
info = tinympc.available_backends()
assert info["c"].startswith("unavailable"), info

problem = tinympc.default_quadrotor_problem()
solver = tinympc.TinyMPCSolver(
    problem, tinympc.SolverSettings(max_iterations=12))
solution = solver.solve(0.1 * np.ones(problem.state_dim),
                        Xref=np.zeros(problem.state_dim))
print(repr(float(solution.states.sum())))
print(repr(float(solution.inputs.sum())))
print(solution.iterations)
"""


class TestUnavailableBackendFallback:
    def test_requested_c_without_cffi_selects_numpy_identically(self):
        env = dict(os.environ)
        env["REPRO_KERNEL_BACKEND"] = "c"
        env.pop("PYTHONPATH", None)
        proc = subprocess.run(
            [sys.executable, "-c", _FALLBACK_SCRIPT, SRC_DIR],
            capture_output=True, text=True, env=env, timeout=240)
        assert proc.returncode == 0, proc.stderr
        states_sum, inputs_sum, iterations = proc.stdout.strip().splitlines()

        # The same solve through this process's numpy kernels: the fallback
        # must be *identical*, not merely close — it selects the very same
        # implementations.
        problem = default_quadrotor_problem()
        with use_compiled_kernels("numpy"):
            solution = TinyMPCSolver(
                problem, SolverSettings(max_iterations=12)).solve(
                    0.1 * np.ones(problem.state_dim),
                    Xref=np.zeros(problem.state_dim))
        assert states_sum == repr(float(solution.states.sum()))
        assert inputs_sum == repr(float(solution.inputs.sum()))
        assert int(iterations) == solution.iterations


# ---------------------------------------------------------------------------
# Fleet integration
# ---------------------------------------------------------------------------

@needs_compiled
class TestFleetIntegration:
    def test_solver_pool_keys_on_backend(self):
        from repro.fleet.scheduler import SolverPool
        problem = default_quadrotor_problem()
        settings = SolverSettings()
        numpy_key = SolverPool._key(problem, settings, 4)
        with use_compiled_kernels(_COMPILED_NAME):
            compiled_key = SolverPool._key(problem, settings, 4)
        assert numpy_key != compiled_key

    def test_recovery_campaign_discrete_outcomes_match(self):
        """The acceptance campaign: a Fig. 17-style disturbance-recovery
        slice run under the compiled backend reproduces the numpy
        campaign's discrete outcomes — recovered flags and recovery times —
        episode for episode."""
        from repro.fleet import CampaignSpec, run_campaign

        spec = CampaignSpec(
            name="compiled-recovery", episode_kind="recovery",
            implementations=("vector",),
            disturbance_categories=("force",),
            recovery_duration=1.5)
        reference = run_campaign(spec)
        with use_compiled_kernels(_COMPILED_NAME):
            compiled_run = run_campaign(spec)
        assert len(reference.results) == len(compiled_run.results) > 0
        for index, (ref, com) in enumerate(
                zip(reference.results, compiled_run.results)):
            assert com.recovered == ref.recovered, index
            assert com.time_to_recovery == ref.time_to_recovery, index
            np.testing.assert_allclose(com.max_deviation, ref.max_deviation,
                                       rtol=1e-6, atol=1e-9,
                                       err_msg=str(index))
