"""Throughput of the batched solver engine vs a Python loop of scalar solves.

The batched engine exists because fleet-scale workloads (design-space
sweeps, HIL scenario grids, Pareto experiments) solve many instances of one
problem structure: stacking them into ``(B, N, n)`` workspaces turns every
per-knot-point GEMV into one GEMM across the batch and amortizes the Python
call overhead that dominates at TinyMPC's tensor sizes.  This benchmark
asserts the headline claim: at B=64 the batch engine delivers at least 5x
the throughput of sequentially looping the scalar solver.
"""

import time

import numpy as np
import pytest

from repro.bench import write_bench_report
from repro.tinympc import BatchTinyMPCSolver, SolverSettings, TinyMPCSolver

BATCH_SIZE = 64
ROUNDS = 3


def _fleet_states(problem, seed=0):
    rng = np.random.default_rng(seed)
    x0s = np.zeros((BATCH_SIZE, problem.state_dim))
    x0s[:, 0:3] = 0.3 * rng.standard_normal((BATCH_SIZE, 3))
    return x0s


def _time_best(callable_, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.bench
def test_batch_throughput_at_least_5x(quadrotor_problem, show_rows):
    problem = quadrotor_problem
    x0s = _fleet_states(problem)
    goal = np.zeros(problem.state_dim)
    settings = SolverSettings(max_iterations=10, warm_start=False)

    loop_solvers = [TinyMPCSolver(problem, settings) for _ in range(BATCH_SIZE)]

    def sequential():
        return [solver.solve(x0s[index], Xref=goal)
                for index, solver in enumerate(loop_solvers)]

    batch_solver = BatchTinyMPCSolver(problem, BATCH_SIZE, settings)

    def batched():
        return batch_solver.solve(x0s, Xref=goal)

    # Same numerical work on both paths.
    loop_solutions = sequential()
    batch_solutions = batched()
    assert np.array_equal(batch_solutions.iterations,
                          [s.iterations for s in loop_solutions])
    np.testing.assert_allclose(
        batch_solutions.inputs,
        np.stack([s.inputs for s in loop_solutions]),
        rtol=1e-10, atol=1e-13)

    sequential_seconds = _time_best(sequential)
    batched_seconds = _time_best(batched)
    speedup = sequential_seconds / batched_seconds
    solves_per_second = BATCH_SIZE / batched_seconds
    write_bench_report("batch_throughput", {
        "batch_size": BATCH_SIZE,
        "sequential_s_per_fleet": sequential_seconds,
        "batched_s_per_fleet": batched_seconds,
        "batched_solves_per_second": solves_per_second,
        "speedup": speedup,
    })
    show_rows("Batched solver throughput (B={})".format(BATCH_SIZE), [{
        "variant": "python loop of scalar solves",
        "seconds_per_fleet": sequential_seconds,
        "solves_per_second": BATCH_SIZE / sequential_seconds,
        "speedup": 1.0,
    }, {
        "variant": "BatchTinyMPCSolver",
        "seconds_per_fleet": batched_seconds,
        "solves_per_second": solves_per_second,
        "speedup": speedup,
    }])
    assert speedup >= 5.0, \
        "batched engine only {:.1f}x faster than the sequential loop".format(speedup)
