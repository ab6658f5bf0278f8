"""The model fidelity: price a compile without materializing its stream.

The trace path (``CodegenFlow.compile``) builds the full backend instruction
stream — thousands of frozen dataclass instances per program — and times it
with the design point's backend.  :func:`model_report` prices the same
``(program, design point, level)`` tuple without building the stream: it
takes the lowering's blocks (one tuple of records per op) from
:func:`repro.codegen.flow.lowering` and feeds them straight into the
backend's pricing function (:meth:`~repro.arch.backend.Backend.price`),
which ``Backend.run`` calls on a materialized stream as one block.  Both
fidelities therefore share every lowering decision and every cost
expression, and every sum is a left fold in stream order, so the model
equals the trace by construction.  ``tests/arch/test_cycle_model.py``
checks the equality on the whole catalog at every optimization level and
``tests/arch/test_cycle_model_props.py`` on random off-catalog design points
and programs.  The fleet engine exposes the model as the
``fidelity="model"`` campaign axis (`repro.fleet.design_point`), with
frontier candidates promoted back to trace fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..codegen.flow import OPTIMIZATION_LEVELS, lowering
from ..matlib import MatlibProgram
from .backend import StreamCounters
from .configs import DesignPoint, get_design_point, list_design_points
from .isa import GemminiInstruction, GemminiOpcode, InstructionStream

__all__ = [
    "StreamCounters",
    "ModelValidation",
    "PINNED_TOLERANCE",
    "model_report",
    "stream_counters",
    "validate_catalog",
]


# The campaign-level accuracy contract: model-vs-trace relative error on
# total cycles must stay within this bound for every catalog design point at
# every optimization level.  The tier-1 tests fail when it is exceeded.
PINNED_TOLERANCE = 0.02


def stream_counters(stream: InstructionStream) -> StreamCounters:
    """Count fences, DRAM staging transfers, and RoCC commands in a stream.

    The trace fidelity's count, made on the objects and independent of the
    pricing function that counts the same events for the model fidelity.
    """
    counters = StreamCounters(instructions=len(stream))
    for instruction in stream:
        if not isinstance(instruction, GemminiInstruction):
            continue
        opcode = instruction.opcode
        if opcode is not GemminiOpcode.CPU_OP:
            counters.rocc_instructions += 1
        if opcode is GemminiOpcode.FENCE:
            counters.fences += 1
        elif opcode in (GemminiOpcode.MVIN, GemminiOpcode.MVOUT) and instruction.dram:
            counters.dram_transfers += 1
    return counters


def model_report(program: MatlibProgram, design_point: Union[str, DesignPoint],
                 level: str, lmul: int = 1,
                 sync_granularity: Optional[int] = None,
                 with_counters: bool = False):
    """The :class:`CycleReport` of compiling ``program`` at ``level``.

    Equals ``CodegenFlow(lmul=lmul).compile(program, design_point,
    level).report`` without materializing the instruction stream.  With
    ``with_counters=True`` returns ``(report, StreamCounters)``.
    """
    point = (design_point if isinstance(design_point, DesignPoint)
             else get_design_point(design_point))
    _, _, blocks = lowering(program, point, level, lmul=lmul,
                            sync_granularity=sync_granularity)
    report, counters = point.backend().price(blocks)
    if with_counters:
        return report, counters
    return report


@dataclass
class ModelValidation:
    """Model-vs-trace comparison for one (design point, level) pair."""

    design_point: str
    category: str
    level: str
    model_cycles: float
    trace_cycles: float
    exact: bool

    @property
    def relative_error(self) -> float:
        if self.trace_cycles == 0:
            return 0.0 if self.model_cycles == 0 else float("inf")
        return abs(self.model_cycles - self.trace_cycles) / self.trace_cycles

    @property
    def within_tolerance(self) -> bool:
        return self.relative_error <= PINNED_TOLERANCE

    def as_row(self) -> Dict:
        return {
            "design_point": self.design_point,
            "category": self.category,
            "level": self.level,
            "model_cycles": self.model_cycles,
            "trace_cycles": self.trace_cycles,
            "relative_error": self.relative_error,
            "exact": self.exact,
            "within_tolerance": self.within_tolerance,
        }


def validate_catalog(program: Optional[MatlibProgram] = None,
                     levels: str = "all") -> List[ModelValidation]:
    """Compare model vs trace cycles on every catalog design point.

    ``levels="all"`` sweeps every optimization level valid for each point's
    category; ``levels="default"`` uses only the per-category level the
    Pareto sweep (Fig. 10) compiles.  The full-stream trace is the ground
    truth; ``tests/arch/test_cycle_model.py`` fails when any pair exceeds
    :data:`PINNED_TOLERANCE` (or is not bit-exact).
    """
    from ..codegen.flow import CodegenFlow
    from ..experiments.kernel_experiments import default_program

    program = program or default_program()
    flow = CodegenFlow()
    validations: List[ModelValidation] = []
    for point in list_design_points():
        if levels == "default":
            from ..fleet.design_point import default_level_for
            point_levels = (default_level_for(point),)
        else:
            point_levels = OPTIMIZATION_LEVELS[point.category]
        for level in point_levels:
            trace = flow.compile(program, point, level).report
            model = model_report(program, point, level)
            validations.append(ModelValidation(
                design_point=point.name,
                category=point.category,
                level=level,
                model_cycles=model.total_cycles,
                trace_cycles=trace.total_cycles,
                exact=(model.total_cycles == trace.total_cycles
                       and model.cycles_by_kernel == trace.cycles_by_kernel
                       and model.cycles_by_category == trace.cycles_by_category
                       and model.instruction_count == trace.instruction_count
                       and model.flops == trace.flops),
            ))
    return validations
