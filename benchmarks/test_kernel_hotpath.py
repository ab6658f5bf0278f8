"""Perf-regression harness for the zero-allocation fused solve hot path.

Three contracts are enforced, all measured against the retained
pre-refactor implementations (:mod:`repro.tinympc.naive`,
:mod:`repro.drone.reference`) so the comparison is always against exactly
what this PR replaced:

* the steady-state ADMM iteration allocates **zero** numpy buffers
  (tracemalloc, numpy allocation domain — see
  :func:`repro.bench.measure_iteration_allocations`);
* the scalar full-iteration microbenchmark is at least **1.5x** faster,
  and the batched ones no slower, than the pre-refactor kernels;
* a mixed 32-episode fleet campaign is at least **1.12x** faster than the
  same campaign on the naive kernels with per-run solver construction
  (both sides fly the same lockstep plant), while reproducing identical
  outcomes;
* every fast kernel beats its naive counterpart on every layout
  (``KERNEL_PARITY_FLOOR``), with single-pair re-measurement before a
  failure is declared (full-table sweeps flake on loaded runners);
* when a compiled kernel backend is available, its full iteration beats
  the *numpy fast path* by ``COMPILED_SCALAR_FLOOR`` /
  ``COMPILED_BATCH64_FLOOR`` (skipped otherwise).

The measured numbers are written to ``BENCH_kernels.json`` so future PRs
inherit a perf trajectory.  Set ``BENCH_SMOKE=1`` for CI smoke mode
(smaller rounds/grids; thresholds get slack for noisy shared runners).
The timed floors carry the ``bench`` marker, which the default test run
deselects (``pytest.ini``); run them with ``pytest benchmarks -m bench``.
"""

import os

import numpy as np
import pytest

from repro.bench import (
    ALLOC_PEAK_LIMIT_BATCH,
    ALLOC_PEAK_LIMIT_SCALAR,
    COMPILED_BATCH64_FLOOR,
    COMPILED_SCALAR_FLOOR,
    KERNEL_PARITY_FLOOR,
    measure_iteration_allocations,
    measure_kernel_pair,
    naive_iteration,
    run_compiled_backend_bench,
    run_kernel_hotpath_bench,
    write_bench_report,
)
from repro.tinympc import (
    BatchTinyMPCWorkspace,
    TinyMPCWorkspace,
    admm_iteration,
    compute_cache,
    use_compiled_kernels,
)
from repro.tinympc.compiled import resolve_backend

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

# Acceptance thresholds: full thresholds locally, slack in smoke mode where
# shared CI runners make timing noisy (the recorded numbers stay real).
SCALAR_ITERATION_FLOOR = 1.2 if SMOKE else 1.5
BATCH_ITERATION_FLOOR = 1.0 if SMOKE else 1.1
# The campaign floor keeps about 60 % of the measured gain, the rule that
# once gave 1.3 from 1.49x.  Both sides now fly the same lockstep plant, so
# the ratio covers the kernels and the pool only: 1.20 median over 80
# alternating fast/naive campaign pairs (smoke grid 1.23 over 50, where
# 1.1 already sits below 60 % of the gain).
CAMPAIGN_FLOOR = 1.1 if SMOKE else 1.12
# Compiled backend vs the numpy fast path.  Full floors come from
# repro.bench; smoke floors keep margin for loaded runners (measured:
# scalar 34-45x, batch64 2.3-3.1x).
SMOKE_COMPILED_SCALAR_FLOOR = 4.0
SMOKE_COMPILED_BATCH64_FLOOR = 1.6
# Per-kernel parity (fast numpy path vs naive) gets mild smoke slack too.
PARITY_FLOOR = 0.9 if SMOKE else KERNEL_PARITY_FLOOR

_COMPILED_IMPL, _COMPILED_NAME = resolve_backend("auto")


@pytest.fixture(scope="module")
def cache(quadrotor_problem):
    return compute_cache(quadrotor_problem)


@pytest.fixture(scope="module")
def hotpath_bench():
    """One shared bench run: fast-vs-naive table plus compiled-backend rows,
    written to ``BENCH_kernels.json`` exactly once for the whole module."""
    metrics, rows = run_kernel_hotpath_bench(smoke=SMOKE)
    compiled_metrics, compiled_rows = run_compiled_backend_bench(
        "auto", smoke=SMOKE)
    metrics.update(compiled_metrics)
    rows.extend(compiled_rows)
    path = write_bench_report("kernels", metrics, rows, smoke=SMOKE)
    return metrics, rows, path


class TestZeroAllocation:
    """Zero-allocation is a claim about the *numpy* fast path, so each probe
    pins the numpy kernels (``admm_iteration``'s body dispatches through the
    module attrs, which an env-installed compiled backend swaps)."""

    def test_scalar_iteration_allocates_nothing(self, quadrotor_problem, cache):
        ws = TinyMPCWorkspace(quadrotor_problem)
        ws.x[0, 0] = 0.1
        with use_compiled_kernels("numpy"):
            counts = measure_iteration_allocations(
                lambda: admm_iteration(ws, cache))
        assert counts["numpy_net_bytes"] == 0, counts
        assert counts["peak_bytes"] < ALLOC_PEAK_LIMIT_SCALAR, counts

    def test_batch_iteration_allocates_nothing(self, quadrotor_problem, cache):
        ws = BatchTinyMPCWorkspace(quadrotor_problem, batch=64)
        ws.x[:, 0, 0] = 0.1
        with use_compiled_kernels("numpy"):
            counts = measure_iteration_allocations(
                lambda: admm_iteration(ws, cache))
        assert counts["numpy_net_bytes"] == 0, counts
        assert counts["peak_bytes"] < ALLOC_PEAK_LIMIT_BATCH, counts

    def test_probe_detects_the_naive_allocations(self, quadrotor_problem,
                                                 cache):
        """Sensitivity check: the same probe must flag the old kernels."""
        ws = BatchTinyMPCWorkspace(quadrotor_problem, batch=64)
        ws.x[:, 0, 0] = 0.1
        counts = measure_iteration_allocations(
            lambda: naive_iteration(ws, cache))
        assert counts["peak_bytes"] > ALLOC_PEAK_LIMIT_BATCH, counts


@pytest.mark.bench
class TestHotpathSpeedups:
    def test_speedups_and_report(self, show_rows, hotpath_bench):
        metrics, rows, path = hotpath_bench
        show_rows("Kernel hot path (fast vs pre-refactor), written to {}"
                  .format(path), rows)

        assert metrics["alloc_scalar_numpy_net_bytes"] == 0
        assert metrics["alloc_batch64_numpy_net_bytes"] == 0

        def best_iteration_speedup(layout, floor):
            # Load-aware retry, same pattern as the parity re-measurement
            # below: the full-table sweep shares the runner with whatever
            # else CI scheduled, so an apparently failing floor is re-timed
            # alone (best of the sweep and up to two isolated passes)
            # before a regression is declared.
            best = metrics["{}_iteration_speedup".format(layout)]
            with use_compiled_kernels("numpy"):
                for _ in range(2):
                    if best >= floor:
                        break
                    fast_us, naive_us = measure_kernel_pair(
                        "full_iteration", layout)
                    best = max(best, naive_us / fast_us)
            return best

        scalar_speedup = best_iteration_speedup(
            "scalar", SCALAR_ITERATION_FLOOR)
        assert scalar_speedup >= SCALAR_ITERATION_FLOOR, \
            "scalar full-iteration only {:.2f}x faster than pre-refactor".format(
                scalar_speedup)
        assert best_iteration_speedup(
            "batch16", BATCH_ITERATION_FLOOR) >= BATCH_ITERATION_FLOOR
        assert best_iteration_speedup(
            "batch64", BATCH_ITERATION_FLOOR) >= BATCH_ITERATION_FLOOR
        assert metrics["fleet_campaign_speedup"] >= CAMPAIGN_FLOOR, \
            "mixed fleet campaign only {:.2f}x faster than pre-refactor main".format(
                metrics["fleet_campaign_speedup"])

    def test_every_kernel_layout_pair_beats_naive(self, hotpath_bench):
        """No fast kernel may lose to the implementation it replaced, on any
        layout (update_dual sat at 0.87x on scalar for two PRs).

        The contract is about the *numpy* fast path, so the re-measurement
        pins the numpy kernels regardless of any env-installed backend.  An
        apparently failing pair from the shared table is re-timed alone
        (twice) before failing: on a loaded single-core runner one bad
        round in a full-table sweep is common noise.
        """
        _, rows, _ = hotpath_bench
        suspects = [(row["kernel"], row["layout"], row["speedup"])
                    for row in rows
                    if "impl" not in row and row["kernel"] != "full_iteration"
                    and row["speedup"] < PARITY_FLOOR]
        failures = []
        with use_compiled_kernels("numpy"):
            for kernel, layout, first in suspects:
                best = first
                for _ in range(2):
                    fast_us, naive_us = measure_kernel_pair(kernel, layout)
                    best = max(best, naive_us / fast_us)
                    if best >= PARITY_FLOOR:
                        break
                if best < PARITY_FLOOR:
                    failures.append((kernel, layout, best))
        assert not failures, (
            "fast kernels slower than naive: " + ", ".join(
                "{}/{} {:.2f}x".format(k, l, s) for k, l, s in failures))

    @pytest.mark.skipif(_COMPILED_IMPL is None,
                        reason="no compiled kernel backend available")
    def test_compiled_backend_beats_numpy_fast_path(self, hotpath_bench):
        metrics, _, _ = hotpath_bench
        scalar_floor = (SMOKE_COMPILED_SCALAR_FLOOR if SMOKE
                        else COMPILED_SCALAR_FLOOR)
        batch_floor = (SMOKE_COMPILED_BATCH64_FLOOR if SMOKE
                       else COMPILED_BATCH64_FLOOR)
        assert metrics.get("compiled_backend") == _COMPILED_NAME
        assert metrics["scalar_compiled_speedup"] >= scalar_floor, \
            "compiled ({}) scalar iteration only {:.2f}x vs numpy".format(
                _COMPILED_NAME, metrics["scalar_compiled_speedup"])
        assert metrics["batch64_compiled_speedup"] >= batch_floor, \
            "compiled ({}) batch64 iteration only {:.2f}x vs numpy".format(
                _COMPILED_NAME, metrics["batch64_compiled_speedup"])


class TestBitForBitAgainstReference:
    """The speed must be free: fast and naive paths agree exactly.

    Bit-identity holds for the *numpy* fast path only (compiled backends
    carry a documented tolerance instead), so the numpy kernels are pinned
    for the comparison regardless of any env-installed backend.
    """

    @pytest.mark.parametrize("batch", [None, 5])
    def test_iterations_bitwise_equal(self, quadrotor_problem, cache, batch):
        from repro.tinympc.workspace import RESIDUAL_FIELDS, WORKSPACE_BUFFERS

        def build():
            ws = (TinyMPCWorkspace(quadrotor_problem) if batch is None
                  else BatchTinyMPCWorkspace(quadrotor_problem, batch=batch))
            rng = np.random.default_rng(11)
            for name in WORKSPACE_BUFFERS:
                array = getattr(ws, name)
                array[...] = 0.05 * rng.standard_normal(array.shape)
            return ws

        ws_fast, ws_ref = build(), build()
        with use_compiled_kernels("numpy"):
            for _ in range(5):
                admm_iteration(ws_fast, cache)
                naive_iteration(ws_ref, cache)
        for name in WORKSPACE_BUFFERS:
            np.testing.assert_array_equal(getattr(ws_fast, name),
                                          getattr(ws_ref, name), err_msg=name)
        for name in RESIDUAL_FIELDS:
            assert np.array_equal(np.asarray(getattr(ws_fast, name)),
                                  np.asarray(getattr(ws_ref, name))), name
