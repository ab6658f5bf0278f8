"""Throughput of model-fidelity design-space exploration vs serial compiles.

Both fidelities run the same lowering and the same backend pricing function;
the model fidelity skips materializing the instruction stream.  This
benchmark sweeps the full 114-spec design grid — every catalog (point,
level) pair plus the LMUL and sync-granularity option axes — once through
the serial :class:`~repro.codegen.CodegenFlow` loop and once as
``design_point`` campaign episodes at ``fidelity="model"``, and asserts the
model path delivers at least :data:`repro.bench.DSE_MODEL_SPEEDUP_FLOOR`
the throughput: what skipping the instruction objects buys, net of the
fleet's per-episode bookkeeping.
"""

import pytest

from repro.bench import (
    DSE_MODEL_SPEEDUP_FLOOR,
    dse_grid,
    run_dse_bench,
    write_bench_report,
)


@pytest.mark.bench
def test_dse_model_campaign_beats_serial_compiles(show_rows):
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
