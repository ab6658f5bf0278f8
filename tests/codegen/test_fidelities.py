"""The two fidelities share one lowering and one pricing function.

``fidelity="trace"`` materializes the lowering's blocks of records into
instruction objects and times the stream with ``Backend.run``;
``fidelity="model"`` feeds the same blocks straight into ``Backend.price``.
Building the objects is the only thing that separates them, so the model
must build none, and lowering options fitted to a design point apply to
both.
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
from repro.matlib import MatlibProgram, Trace

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


def _varied_programs():
    """Programs in which ops that share a signature meet different lowering
    state: the default program followed by its ops in reverse (vector
    length, scratchpad contents, configuration, fence counter), and the
    default program with one more reader of the first GEMV's result, which
    then no longer stays in registers while later GEMVs' results do."""
    ops = list(default_program().ops)
    return (MatlibProgram(Trace(ops + ops[::-1]), name="both-orders"),
            MatlibProgram(Trace(ops + [replace(ops[1], output="again")]),
                          name="extra-reader"))


@pytest.mark.parametrize("name,scratchpad_kb", [
    (name, None) for name in ONE_POINT_PER_CATEGORY] + [
    ("gemmini-4x4-os-64k-rocket", 16)])     # some operands spill
@pytest.mark.parametrize("lmul,granularity", [(1, None), (4, 3)])
def test_shared_blocks_lower_like_unshared_ops(name, scratchpad_kb, lmul,
                                               granularity):
    # Ops that lower alike share one block object.  Giving every op its own
    # kernel makes every signature unique, so nothing is shared; apart from
    # the kernel names the streams must be the same.
    point = get_design_point(name)
    if scratchpad_kb is not None:
        point = replace(point, config=replace(point.config,
                                              scratchpad_kb=scratchpad_kb))
    if point.category != "vector":
        lmul = 1
    if point.category != "systolic":
        granularity = None
    for program in _varied_programs():
        unique = MatlibProgram(Trace([
            replace(op, kernel="{}#{}".format(op.kernel, index))
            for index, op in enumerate(program.ops)]), name="unique")
        for level in OPTIMIZATION_LEVELS[point.category]:
            shared, unshared = (
                [replace(instruction, kernel="") for instruction in
                 CodegenFlow(lmul=lmul).lower(lowered, point, level,
                                              sync_granularity=granularity)]
                for lowered in (program, unique))
            assert shared == unshared, (program.name, level)
