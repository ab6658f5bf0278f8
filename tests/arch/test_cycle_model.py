"""Model fidelity equals trace fidelity on the catalog.

The ``fidelity="model"`` campaign axis prices the lowering's blocks
without materializing the instruction stream; the trace builds the stream
and times it with ``Backend.run``.  Both share the lowering and the
backend's pricing function, so every catalog (design point, optimization level)
pair must be bit-exact (and within
:data:`~repro.arch.cycle_model.PINNED_TOLERANCE` of the trace), and the
points a designer would actually pick — the Figure 10 Pareto frontier —
must match the trace *exactly*, counters included.
``scripts/validate_cycle_model.py`` prints the same sweep as a table;
``test_cycle_model_props.py`` checks design points off the catalog.
"""

import pytest

from repro.arch import list_design_points
from repro.arch.cycle_model import (
    PINNED_TOLERANCE,
    model_report,
    stream_counters,
    validate_catalog,
)
from repro.codegen import OPTIMIZATION_LEVELS, CodegenFlow
from repro.experiments.kernel_experiments import default_program


@pytest.fixture(scope="module")
def catalog_validation():
    return validate_catalog(levels="all")


class TestCatalogAccuracy:
    def test_sweep_covers_every_point_level_pair(self, catalog_validation):
        expected = sum(len(OPTIMIZATION_LEVELS[point.category])
                       for point in list_design_points())
        assert len(catalog_validation) == expected
        assert expected == 48

    def test_every_pair_within_pinned_tolerance(self, catalog_validation):
        failures = [v.as_row() for v in catalog_validation
                    if not v.within_tolerance]
        assert not failures, failures

    def test_every_category_within_tolerance(self, catalog_validation):
        worst = {}
        for validation in catalog_validation:
            worst[validation.category] = max(
                worst.get(validation.category, 0.0),
                validation.relative_error)
        assert set(worst) == {"scalar", "vector", "systolic"}
        for category, error in worst.items():
            assert error <= PINNED_TOLERANCE, (category, error)

    def test_whole_catalog_is_currently_bit_exact(self, catalog_validation):
        # Stronger than the tolerance contract and deliberately pinned: both
        # fidelities run the same lowering and pricing function, so any
        # drift at all means they stopped sharing one.
        inexact = [v.as_row() for v in catalog_validation if not v.exact]
        assert not inexact, inexact


class TestFrontierExactness:
    def test_model_frontier_promotes_to_exact_trace(self):
        from repro.experiments.pareto_experiments import fig10_pareto
        rows = fig10_pareto(fidelity="model")
        frontier = [row for row in rows if row["pareto_optimal"]]
        assert frontier
        for row in frontier:
            assert row["trace_confirmed"], row
            assert row["trace_cycles_per_iteration"] == \
                row["cycles_per_iteration"]

    @pytest.mark.parametrize("point,level", [
        ("rocket", "eigen"),
        ("saturn-v512-d512-rocket", "fused"),
        ("gemmini-4x4-os-64k-rocket", "optimized"),
    ])
    def test_spot_check_counters_match_trace(self, point, level):
        program = default_program()
        compiled = CodegenFlow().compile(program, point, level)
        traced = stream_counters(compiled.stream)
        report, modeled = model_report(program, point, level,
                                       with_counters=True)
        assert report.total_cycles == compiled.report.total_cycles
        assert modeled == traced
