"""Perf-regression harness: hot-path microbenchmarks and BENCH_*.json reports.

Every performance claim this project makes is measured here and written to a
machine-readable ``BENCH_<name>.json`` so future PRs inherit a perf
trajectory instead of a vibe:

* :func:`run_kernel_hotpath_bench` times every fast kernel and the full ADMM
  iteration (scalar and batched) against the retained pre-refactor
  implementations (:mod:`repro.tinympc.naive`), and times a mixed fleet
  campaign both ways;
* :func:`measure_iteration_allocations` proves the steady-state iteration
  allocates zero numpy buffers, via ``tracemalloc`` with numpy's allocation
  domain;
* :func:`write_bench_report` emits the shared JSON format consumed by CI
  (the ``bench-smoke`` job uploads ``BENCH_kernels.json`` as an artifact)
  and by the throughput benchmarks in ``benchmarks/``.

Run ``python scripts/bench_report.py`` for the CLI entry point, or
``pytest benchmarks/test_kernel_hotpath.py`` for the asserted thresholds.
See ``docs/perf.md`` for how to read the numbers.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .tinympc import (
    BatchTinyMPCWorkspace,
    TinyMPCWorkspace,
    admm_iteration,
    compute_cache,
    default_quadrotor_problem,
)
from .tinympc import kernels, naive
from .tinympc.cache import LQRCache

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "COMPILED_SCALAR_FLOOR",
    "COMPILED_BATCH64_FLOOR",
    "KERNEL_PARITY_FLOOR",
    "bench_output_dir",
    "write_bench_report",
    "load_bench_report",
    "time_interleaved",
    "naive_iteration",
    "measure_iteration_allocations",
    "measure_kernel_pair",
    "run_kernel_hotpath_bench",
    "run_compiled_backend_bench",
    "DSE_MODEL_SPEEDUP_FLOOR",
    "dse_grid",
    "run_dse_bench",
]

BENCH_SCHEMA_VERSION = 1

# Compiled-backend floors (vs the *numpy fast path*, not vs naive): the
# C iteration (its two foreign calls) must beat the numpy kernels by at
# least this much or the whole backend is dead weight.  Measured headroom
# on a 2-vCPU host: scalar 34-45x, batch64 2.3-3.1x, so 5x/2x trip on real
# regressions without flaking on timer noise.
COMPILED_SCALAR_FLOOR = 5.0
COMPILED_BATCH64_FLOOR = 2.0

# The model-fidelity DSE campaign must sweep the design grid at least this
# much faster than the serial compile loop.  Both sides run the same
# lowering and the same pricing function; the model skips building the
# instruction objects, so the ratio is what materializing the stream
# costs, net of the fleet's per-episode bookkeeping.  Measured on a 2-vCPU
# host (12 runs): median 3.73x on the 114-spec grid (vector ~4.2x,
# systolic ~2.7x, scalar ~1.8x); the floor keeps 60% of the margin over
# 1x: 1 + 0.6 * (3.73 - 1), rounded down.
DSE_MODEL_SPEEDUP_FLOOR = 2.63

# Every fast kernel on every layout must be at least as fast as its naive
# counterpart — a fast path that loses to the code it replaced is a bug
# (update_dual sat at 0.87x for two PRs before anyone noticed).
KERNEL_PARITY_FLOOR = 1.0

# Thresholds shared by the pytest assertions and the CLI report.  The peak
# ceilings sit well above the measured tracemalloc bookkeeping floor
# (~1.4 KB) and well below the smallest whole-buffer temporary the old
# kernels created (scalar ``(N, n)`` state temp ≈ 8 KB peak; batched ≈
# 190 KB peak), so a reintroduced allocation trips them loudly.
ALLOC_PEAK_LIMIT_SCALAR = 4096
ALLOC_PEAK_LIMIT_BATCH = 8192


# ---------------------------------------------------------------------------
# Report format
# ---------------------------------------------------------------------------

def bench_output_dir() -> Path:
    """Where BENCH_*.json files land: ``$BENCH_DIR``, else the gitignored
    ``bench-out/`` under the working dir.  The tracked ledger at the repo
    root is re-recorded only on request, with ``BENCH_DIR=.``."""
    return Path(os.environ.get("BENCH_DIR", "bench-out"))


def write_bench_report(name: str, metrics: Dict[str, object],
                       rows: Optional[List[Dict[str, object]]] = None,
                       smoke: bool = False,
                       directory: Optional[Path] = None,
                       backend: Optional[Dict[str, object]] = None) -> Path:
    """Write ``BENCH_<name>.json`` in the shared schema and return its path.

    ``metrics`` holds the headline scalars (speedups, allocation counts);
    ``rows`` an optional per-item table (per-kernel timings, per-variant
    throughput).  Host metadata is recorded so trajectories across machines
    are comparable — including the active kernel backend (name, threads),
    because a number measured under the C backend is not comparable to one
    measured under numpy.
    """
    if backend is None:
        from .tinympc import kernel_backend_info
        backend = kernel_backend_info()
    payload = {
        "name": name,
        "schema": BENCH_SCHEMA_VERSION,
        "created_unix": time.time(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "smoke": bool(smoke),
        "backend": backend,
        "metrics": metrics,
        "rows": rows or [],
    }
    directory = directory or bench_output_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "BENCH_{}.json".format(name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def load_bench_report(path) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

def naive_iteration(ws: TinyMPCWorkspace, cache: LQRCache) -> None:
    """One full ADMM iteration through the pre-refactor reference kernels:
    the two calls :func:`repro.tinympc.kernels.admm_iteration` makes."""
    naive.iteration_prelude_naive(ws, cache)
    naive.backward_pass_naive(ws, cache)


# ---------------------------------------------------------------------------
# Allocation accounting
# ---------------------------------------------------------------------------

def measure_iteration_allocations(iterate: Callable[[], None],
                                  repeats: int = 10) -> Dict[str, int]:
    """Tracemalloc accounting for a steady-state iteration callable.

    Protocol: tracing is started *before* warmup so every steady-state
    allocation site is already in tracemalloc's tables, then ``repeats``
    iterations run between snapshots.  Returns:

    * ``numpy_net_bytes`` — net bytes retained in numpy's allocation domain
      (``np.lib.tracemalloc_domain``), i.e. actual array-buffer leaks.
      Zero for an allocation-free hot path.
    * ``raw_net_bytes`` — net across all domains (includes interpreter
      bookkeeping noise); reported for context, not asserted.
    * ``peak_bytes`` — peak traced delta during the window.  Transient
      buffer temporaries (what the pre-refactor kernels created every call)
      show up here even though they are freed.
    """
    tracemalloc.start()
    try:
        for _ in range(5):
            iterate()
        gc.collect()
        before = tracemalloc.take_snapshot()
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(repeats):
            iterate()
        current, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    domain = [tracemalloc.DomainFilter(inclusive=True,
                                       domain=np.lib.tracemalloc_domain)]
    numpy_net = sum(stat.size_diff for stat in
                    after.filter_traces(domain).compare_to(
                        before.filter_traces(domain), "lineno"))
    return {
        "numpy_net_bytes": int(numpy_net),
        "raw_net_bytes": int(current - base),
        "peak_bytes": int(peak - base),
    }


# ---------------------------------------------------------------------------
# Kernel hot-path benchmark
# ---------------------------------------------------------------------------

_KERNEL_PAIRS: Tuple[Tuple[str, Callable, Callable], ...] = (
    ("forward_pass",
     lambda ws, cache: kernels.forward_pass(ws, cache),
     lambda ws, cache: naive.forward_pass_naive(ws, cache)),
    ("backward_pass",
     lambda ws, cache: kernels.backward_pass(ws, cache),
     lambda ws, cache: naive.backward_pass_naive(ws, cache)),
    ("update_slack",
     lambda ws, cache: kernels.update_slack(ws),
     lambda ws, cache: naive.update_slack_naive(ws)),
    ("update_dual",
     lambda ws, cache: kernels.update_dual(ws),
     lambda ws, cache: naive.update_dual_naive(ws)),
    ("update_linear_cost",
     lambda ws, cache: kernels.update_linear_cost(ws, cache),
     lambda ws, cache: naive.update_linear_cost_naive(ws, cache)),
    ("update_residuals",
     lambda ws, cache: kernels.update_residuals(ws),
     lambda ws, cache: naive.update_residuals_naive(ws)),
)


_KERNEL_PAIRS_BY_NAME = {name: (fast_fn, naive_fn)
                         for name, fast_fn, naive_fn in _KERNEL_PAIRS}

# The whole-iteration pair is addressable too, so the full-iteration floors
# get the same interleaved single-pair re-measurement path the per-kernel
# parity tests use when a shared-runner sweep produces one noisy round.
_KERNEL_PAIRS_BY_NAME["full_iteration"] = (
    lambda ws, cache: admm_iteration(ws, cache),
    lambda ws, cache: naive_iteration(ws, cache))

# Inner-loop repeat counts per layout for the kernel-pair timer.
_LAYOUT_BATCH = {"scalar": None, "batch16": 16, "batch64": 64}


def _seeded_workspace(problem, batch: Optional[int]):
    """A workspace filled with small random state (fixed seed).

    Randomized — not zero — contents matter for honest timing: ``np.zeros``
    buffers are calloc-backed, so until first write every page of a
    read-only operand resolves to the kernel's single shared zero page and
    sits permanently in L1.  That flatters whichever implementation *reads*
    more relative to its writes, by up to ~35% on the batch64 elementwise
    kernels.  Real solver state is dense and distinct, like this.
    """
    ws = (TinyMPCWorkspace(problem) if batch is None
          else BatchTinyMPCWorkspace(problem, batch=batch))
    from .tinympc.workspace import WORKSPACE_BUFFERS
    rng = np.random.default_rng(1234)
    for name in WORKSPACE_BUFFERS:
        array = getattr(ws, name)
        array[...] = 0.05 * rng.standard_normal(array.shape)
    ws.x[..., 0, 0] = 0.1
    ws.x[..., 0, 2] = -0.05
    return ws


def time_interleaved(fast: Callable[[], object], naive: Callable[[], object],
                     rounds: int = 9, inner: int = 60, warmup: int = 2
                     ) -> Tuple[float, float]:
    """Best-of-``rounds`` mean seconds per call of each side → ``(fast_s,
    naive_s)``, timing the two sides in *interleaved* rounds (fast, naive,
    fast, naive, ...).

    Best-of is the standard microbenchmark estimator: scheduler noise and
    cache misses only ever make a round slower, so the minimum round is the
    closest observation of the true cost.  On a loaded single-core runner,
    background load drifts on the scale of a whole measurement, so timing
    one side after the other biases whichever ran during the busier window:
    timed that way on a 2-vCPU host, the scalar full iteration read 2.44x
    and then 1.42x with no kernel change.  Interleaving exposes both sides to the
    same load profile and best-of keeps the quietest round of each.  The
    ``warmup`` calls keep one-time costs (lazy scratch construction, ufunc
    loop selection, shared-library loading) out of every measured round.
    """
    for _ in range(warmup):     # lazy scratch, ufunc loops, on both sides
        fast()
        naive()
    fast_s = naive_s = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(inner):
            fast()
        fast_s = min(fast_s, (time.perf_counter() - start) / inner)
        start = time.perf_counter()
        for _ in range(inner):
            naive()
        naive_s = min(naive_s, (time.perf_counter() - start) / inner)
    return fast_s, naive_s


def measure_kernel_pair(name: str, layout: str, rounds: int = 9,
                        inner: int = 60, problem=None,
                        cache: Optional[LQRCache] = None
                        ) -> Tuple[float, float]:
    """Time one fast/naive kernel pair on one layout → ``(fast_us, naive_us)``.

    This is the single-pair re-measurement the parity threshold tests use to
    confirm an apparent <1.0x pair before failing; like the full-table
    sweep it times the two sides with :func:`time_interleaved`.
    """
    if problem is None:
        problem = default_quadrotor_problem()
    if cache is None:
        cache = compute_cache(problem)
    fast_fn, naive_fn = _KERNEL_PAIRS_BY_NAME[name]
    batch = _LAYOUT_BATCH[layout]
    ws_fast = _seeded_workspace(problem, batch)
    ws_naive = _seeded_workspace(problem, batch)
    fast_s, naive_s = time_interleaved(lambda: fast_fn(ws_fast, cache),
                                       lambda: naive_fn(ws_naive, cache),
                                       rounds, inner)
    return 1e6 * fast_s, 1e6 * naive_s


def _campaign_speedup(smoke: bool, rounds: int) -> Dict[str, float]:
    """Time one mixed fleet campaign with the live vs the naive solve path.

    The naive run swaps only the kernels and the pool: both solvers route
    through the pre-refactor kernels
    (:func:`~repro.tinympc.naive.use_naive_kernels`), and every scheduler
    gets a throwaway :class:`~repro.fleet.scheduler.SolverPool`, as
    pre-refactor main built solver state from scratch per run.  Physics is
    the same lockstep plant on both sides (the fleet no longer calls the
    ``Quadrotor`` methods the pre-refactor physics could replace), so the
    ratio measures the solve hot path and pooling only.  The live run uses
    the warmed process pool.  Both runs produce bit-identical episode
    outcomes; only the clock differs.

    The two sides are timed in interleaved rounds that alternate which
    side goes first, and best-of keeps the quietest run of each, for the
    reason :func:`measure_kernel_pair` gives: a whole campaign is long
    enough for background load to drift between two back-to-back blocks.
    """
    from .fleet import CampaignSpec, run_campaign
    from .fleet.scheduler import SolverPool
    from .fleet import scheduler as fleet_scheduler
    from .tinympc import use_naive_kernels

    spec = CampaignSpec(
        name="hotpath-bench",
        difficulties=("easy", "medium"),
        seeds=tuple(range(2 if smoke else 8)),
        frequencies_mhz=(100.0, 250.0))

    def timed_run() -> float:
        start = time.perf_counter()
        run_campaign(spec)
        return time.perf_counter() - start

    def naive_run() -> float:
        # Fresh pool per run: pre-refactor main rebuilt every solver
        # workspace per scheduler run.
        saved_pool = fleet_scheduler._GLOBAL_POOL
        fleet_scheduler._GLOBAL_POOL = SolverPool()
        try:
            with use_naive_kernels():
                return timed_run()
        finally:
            fleet_scheduler._GLOBAL_POOL = saved_pool

    run_campaign(spec)                      # warm the pool + factories
    fast_seconds = naive_seconds = float("inf")
    for round_index in range(rounds):
        if round_index % 2:
            naive_seconds = min(naive_seconds, naive_run())
            fast_seconds = min(fast_seconds, timed_run())
        else:
            fast_seconds = min(fast_seconds, timed_run())
            naive_seconds = min(naive_seconds, naive_run())

    return {
        "fleet_campaign_episodes": float(spec.size),
        "fleet_campaign_s_fast": fast_seconds,
        "fleet_campaign_s_naive": naive_seconds,
        "fleet_campaign_speedup": naive_seconds / fast_seconds,
    }


def run_kernel_hotpath_bench(smoke: bool = False, campaign: bool = True
                             ) -> Tuple[Dict[str, object],
                                        List[Dict[str, object]]]:
    """Measure the kernel hot path; returns ``(metrics, rows)``.

    ``rows`` is the per-kernel table (fast vs naive, scalar and batched);
    ``metrics`` carries the headline full-iteration and fleet-campaign
    speedups plus the allocation accounting.  ``smoke=True`` shrinks rounds
    and the campaign grid for CI smoke jobs; the numbers stay real, just
    noisier.

    The kernel table and allocation accounting pin the *numpy* kernels for
    the duration (the two ``kernels.SOLVER_KERNELS`` may hold a compiled
    backend via ``REPRO_KERNEL_BACKEND``); the compiled backend has its own
    comparison in :func:`run_compiled_backend_bench`.  The fleet campaign
    is deliberately left on the live path — whichever backend is active is
    the one fleet users get, and the report's ``backend`` metadata records
    which one produced the number.
    """
    from .tinympc import compiled

    problem = default_quadrotor_problem()
    cache = compute_cache(problem)
    rounds = 3 if smoke else 7
    inner_scalar = 20 if smoke else 60
    inner_batch = 5 if smoke else 20

    layouts = (("scalar", None, inner_scalar), ("batch16", 16, inner_batch),
               ("batch64", 64, inner_batch))
    rows: List[Dict[str, object]] = []
    metrics: Dict[str, object] = {}

    with compiled.use_compiled_kernels("numpy"):
        for layout, batch, inner in layouts:
            ws_fast = _seeded_workspace(problem, batch)
            ws_naive = _seeded_workspace(problem, batch)
            for name, (fast_fn, naive_fn) in _KERNEL_PAIRS_BY_NAME.items():
                fast_s, naive_s = time_interleaved(
                    lambda: fast_fn(ws_fast, cache),
                    lambda: naive_fn(ws_naive, cache), rounds, inner)
                fast_us, naive_us = 1e6 * fast_s, 1e6 * naive_s
                rows.append({"kernel": name, "layout": layout,
                             "fast_us": fast_us, "naive_us": naive_us,
                             "speedup": naive_us / fast_us})
            # The table ends with the whole iteration (full_iteration).
            full = rows[-1]
            metrics["{}_iteration_us_fast".format(layout)] = full["fast_us"]
            metrics["{}_iteration_us_naive".format(layout)] = full["naive_us"]
            metrics["{}_iteration_speedup".format(layout)] = full["speedup"]
            metrics["{}_fused_kr".format(layout)] = \
                bool(ws_fast.scratch.kr_ok)

        for layout, batch in (("scalar", None), ("batch64", 64)):
            ws = _seeded_workspace(problem, batch)
            counts = measure_iteration_allocations(
                lambda: admm_iteration(ws, cache))
            for key, value in counts.items():
                metrics["alloc_{}_{}".format(layout, key)] = value

    if campaign:
        metrics.update(_campaign_speedup(smoke, rounds=3 if smoke else 5))

    return metrics, rows


# ---------------------------------------------------------------------------
# Design-space exploration throughput benchmark
# ---------------------------------------------------------------------------

def dse_grid(smoke: bool = False) -> List:
    """The design grid the DSE throughput benchmark sweeps.

    Full mode covers every catalog (point, level) pair plus the option axes
    the cycle model exposes — LMUL register grouping on the vector points
    and sync granularity on the output-stationary Gemmini points — for a
    114-spec grid (48 catalog + 54 LMUL + 12 sync).  Smoke mode keeps just
    the 48 catalog pairs.
    """
    from .arch import list_design_points
    from .codegen import OPTIMIZATION_LEVELS
    from .fleet.design_point import DesignPointSpec

    specs = [DesignPointSpec(design_point=point.name, codegen_level=level)
             for point in list_design_points()
             for level in OPTIMIZATION_LEVELS[point.category]]
    if smoke:
        return specs
    for point in list_design_points("vector"):
        for level in OPTIMIZATION_LEVELS["vector"]:
            for lmul in (2, 4, 8):
                specs.append(DesignPointSpec(design_point=point.name,
                                             codegen_level=level, lmul=lmul))
    for point in list_design_points("systolic"):
        if point.config.dataflow != "OS":
            continue
        for granularity in (1, 2, 4, 8, 16, 32):
            specs.append(DesignPointSpec(design_point=point.name,
                                         codegen_level="optimized",
                                         sync_granularity=granularity))
    return specs


def _median_iqr(samples: List[float]) -> Tuple[float, float]:
    """Median and interquartile range of two or more timing samples."""
    first, median, third = statistics.quantiles(samples, n=4)
    return median, third - first


def run_dse_bench(smoke: bool = False) -> Tuple[Dict[str, object],
                                                List[Dict[str, object]]]:
    """Time the model-fidelity DSE campaign against the serial compile loop.

    Returns ``(metrics, rows)`` for ``BENCH_dse.json``: one row per hardware
    category (the model's advantage differs by an order of magnitude between
    vector and scalar backends) plus headline totals.  The serial reference
    is the plain :class:`~repro.codegen.CodegenFlow` loop the figure sweeps
    used before the fleet path existed; the fast side is the same grid as
    ``design_point`` episodes at ``fidelity="model"``.  Design-point
    evaluations keep no results, so every timed round pays full cost.

    The two sides are timed in interleaved rounds that alternate which side
    goes first (see :func:`time_interleaved` for why); each row records the
    median and interquartile range of each side's rounds, and the speedups
    are ratios of medians.
    """
    from .arch import get_design_point
    from .codegen import CodegenFlow
    from .experiments.kernel_experiments import default_program
    from .fleet.design_point import DesignPointSpec, compile_via_fleet

    program = default_program()
    specs = dse_grid(smoke=smoke)
    rounds = 3 if smoke else 7
    rows: List[Dict[str, object]] = []
    total_serial = total_model = 0.0

    for category in ("scalar", "vector", "systolic"):
        group = [spec for spec in specs
                 if get_design_point(spec.design_point).category == category]
        model_specs = [DesignPointSpec(
            design_point=spec.design_point, codegen_level=spec.codegen_level,
            program=spec.program, fidelity="model", lmul=spec.lmul,
            sync_granularity=spec.sync_granularity,
            solve_iterations=spec.solve_iterations) for spec in group]

        def serial() -> float:
            start = time.perf_counter()
            for spec in group:
                CodegenFlow(lmul=spec.lmul).compile(
                    program, spec.design_point, spec.resolved_level(),
                    sync_granularity=spec.sync_granularity)
            return time.perf_counter() - start

        def model() -> float:
            start = time.perf_counter()
            compile_via_fleet(model_specs)
            return time.perf_counter() - start

        # Warm both sides (lazy program build, per-program plans) the way a
        # real campaign hits them cold exactly once.
        serial()
        model()
        serial_s: List[float] = []
        model_s: List[float] = []
        for round_index in range(rounds):
            if round_index % 2:
                model_s.append(model())
                serial_s.append(serial())
            else:
                serial_s.append(serial())
                model_s.append(model())

        serial_median, serial_iqr = _median_iqr(serial_s)
        model_median, model_iqr = _median_iqr(model_s)
        total_serial += serial_median
        total_model += model_median
        rows.append({"category": category, "specs": len(group),
                     "rounds": rounds,
                     "serial_compile_s": serial_median,
                     "serial_compile_iqr_s": serial_iqr,
                     "model_fleet_s": model_median,
                     "model_fleet_iqr_s": model_iqr,
                     "speedup": serial_median / model_median})

    metrics = {
        "grid_points": len(specs),
        "serial_compile_s": total_serial,
        "model_fleet_s": total_model,
        "serial_points_per_second": len(specs) / total_serial,
        "model_points_per_second": len(specs) / total_model,
        "model_speedup": total_serial / total_model,
        "speedup_floor": DSE_MODEL_SPEEDUP_FLOOR,
    }
    return metrics, rows


def run_compiled_backend_bench(backend: str = "auto", smoke: bool = False
                               ) -> Tuple[Dict[str, object],
                                          List[Dict[str, object]]]:
    """Measure a compiled backend's full iteration vs the numpy fast path.

    Returns ``(metrics, rows)``; both are empty when no compiled backend is
    available (CI's no-toolchain leg).  Rows carry an ``impl`` key naming
    the backend so they can sit in the same ``BENCH_kernels.json`` table as
    the fast-vs-naive rows; their baseline (``naive_us`` column) is the
    *numpy fast path*, the thing the compiled backend must beat to justify
    existing (see :data:`COMPILED_SCALAR_FLOOR` /
    :data:`COMPILED_BATCH64_FLOOR`).
    """
    from .tinympc import compiled

    impl, resolved = compiled.resolve_backend(backend)
    if impl is None:
        return {}, []
    problem = default_quadrotor_problem()
    cache = compute_cache(problem)
    rounds = 3 if smoke else 7
    layouts = (("scalar", None, 100 if smoke else 300),
               ("batch64", 64, 10 if smoke else 30))
    metrics: Dict[str, object] = {"compiled_backend": resolved}
    rows: List[Dict[str, object]] = []
    # Each side calls its own backend's two solver kernels directly (the
    # process may have a backend installed via REPRO_KERNEL_BACKEND), so
    # the two can be timed in interleaved rounds.
    numpy_prelude, numpy_backward = (compiled._NUMPY_IMPLS[name]
                                     for name in kernels.SOLVER_KERNELS)
    impl_prelude, impl_backward = (getattr(impl, name)
                                   for name in kernels.SOLVER_KERNELS)
    for layout, batch, inner in layouts:
        ws_numpy = _seeded_workspace(problem, batch)
        ws_compiled = _seeded_workspace(problem, batch)

        def numpy_iteration():
            numpy_prelude(ws_numpy, cache)
            numpy_backward(ws_numpy, cache)

        def compiled_iteration():
            impl_prelude(ws_compiled, cache)
            impl_backward(ws_compiled, cache)

        compiled_s, numpy_s = time_interleaved(
            compiled_iteration, numpy_iteration, rounds, inner)
        compiled_us, numpy_us = 1e6 * compiled_s, 1e6 * numpy_s
        speedup = numpy_us / compiled_us
        rows.append({"kernel": "full_iteration", "layout": layout,
                     "impl": resolved, "baseline": "numpy-fast",
                     "fast_us": compiled_us, "naive_us": numpy_us,
                     "speedup": speedup})
        metrics["{}_compiled_us".format(layout)] = compiled_us
        metrics["{}_numpyfast_us".format(layout)] = numpy_us
        metrics["{}_compiled_speedup".format(layout)] = speedup
    return metrics, rows
