"""Throughput of model-fidelity design-space exploration vs serial compiles.

The analytical cycle model exists so that wide architecture sweeps don't pay
full codegen-and-simulate cost per point.  This benchmark sweeps the full
114-spec design grid — every catalog (point, level) pair plus the LMUL and
sync-granularity option axes — once through the serial
:class:`~repro.codegen.CodegenFlow` loop and once as ``design_point``
campaign episodes at ``fidelity="model"``, and asserts the model path
delivers at least :data:`repro.bench.DSE_MODEL_SPEEDUP_FLOOR` (5x) the
throughput.  The model is separately validated bit-exact against the trace
on the whole catalog (``tests/arch/test_cycle_model.py``), so this speedup
is not bought with accuracy.
"""

import pytest

from repro.bench import (
    DSE_MODEL_SPEEDUP_FLOOR,
    dse_grid,
    run_dse_bench,
    write_bench_report,
)


@pytest.mark.bench
def test_dse_model_campaign_at_least_5x(show_rows):
    grid = dse_grid()
    assert len(grid) >= 100, \
        "DSE grid shrank to {} specs; the throughput claim is for a " \
        "100+ point sweep".format(len(grid))

    metrics, rows = run_dse_bench()
    write_bench_report("dse", metrics, rows)
    show_rows("DSE throughput by category ({} specs)".format(
        metrics["grid_points"]), rows)

    assert metrics["grid_points"] == len(grid)
    assert metrics["model_speedup"] >= DSE_MODEL_SPEEDUP_FLOOR, \
        "model-fidelity DSE only {:.1f}x faster than the serial compile " \
        "loop (floor {}x)".format(metrics["model_speedup"],
                                  DSE_MODEL_SPEEDUP_FLOOR)
