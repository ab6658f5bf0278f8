"""The two fidelities share one lowering and one pricing loop.

``fidelity="trace"`` materializes the lowering's records into instruction
objects and times the stream with ``Backend.run``; ``fidelity="model"``
feeds the same records straight into the backend's pricing loop.  Building
the objects is the only thing that separates them, so the model must build
none, and lowering options fitted to a design point apply to both.
"""

from dataclasses import replace

import pytest

from repro.arch import (
    GemminiInstruction,
    GemminiOpcode,
    ScalarWork,
    VectorInstruction,
    get_design_point,
)
from repro.arch.configs import DesignPoint
from repro.arch.cycle_model import model_report, stream_counters
from repro.codegen import OPTIMIZATION_LEVELS, CodegenFlow
from repro.experiments.kernel_experiments import default_program

ONE_POINT_PER_CATEGORY = ("rocket", "saturn-v512-d256-rocket",
                          "gemmini-4x4-os-64k-rocket")


@pytest.fixture
def constructions(monkeypatch):
    """Counts instruction objects built while the test runs."""
    built = []
    for kind in (ScalarWork, VectorInstruction, GemminiInstruction):
        def counting_init(self, *args, _init=kind.__init__, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)
        monkeypatch.setattr(kind, "__init__", counting_init)
    return built


@pytest.mark.parametrize("name", ONE_POINT_PER_CATEGORY)
def test_model_fidelity_builds_no_instruction_objects(name, constructions):
    program = default_program()
    point = get_design_point(name)
    for level in OPTIMIZATION_LEVELS[point.category]:
        report = model_report(program, point, level)
        assert constructions == [], level
        compiled = CodegenFlow().compile(program, point, level)
        assert len(constructions) == report.instruction_count > 0, level
        assert compiled.report == report, level
        constructions.clear()


def test_gemmini_without_pooling_engine_does_not_pool():
    program = default_program()
    pooled = get_design_point("gemmini-4x4-os-64k-rocket")
    poolless = DesignPoint(
        name="gemmini-4x4-os-64k-rocket-nopool", category="systolic",
        config=replace(pooled.config, has_pooling_engine=False))

    compiled = CodegenFlow().compile(program, poolless, "optimized")
    assert not [i for i in compiled.stream
                if i.opcode is GemminiOpcode.MVOUT and i.pool_factor > 1]
    # Reductions take the unpooled path: MVOUT, fence, then the CPU.
    assert compiled.cycles > CodegenFlow().compile(
        program, pooled, "optimized").cycles

    report, counters = model_report(program, poolless, "optimized",
                                    with_counters=True)
    assert report == compiled.report
    assert counters == stream_counters(compiled.stream)
