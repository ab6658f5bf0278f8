"""End-to-end code-generation flow.

``CodegenFlow`` turns a matlib program into a timed backend binary: it picks
the lowering for the target design point's category, applies the requested
optimization level (the named levels correspond to the paper's software
variants), and runs the resulting instruction stream through the backend
timing model.  :func:`lowering` is the one place that choice is made; the
cycle model (:mod:`repro.arch.cycle_model`) prices the same blocks of
records without materializing the stream.

Optimization levels
-------------------

scalar   : ``library`` (out-of-box matlib C), ``eigen`` (hand-optimized)
vector   : ``library``, ``unrolled``, ``fused`` (Section 4.1), each
           optionally with an LMUL register-grouping setting
systolic : ``library``, ``cisc``, ``static`` (unroll + static mapping),
           ``scratchpad`` (+ scratchpad-resident), ``elementwise``
           (+ activation/scaling engines), ``optimized`` (+ pooling)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, starmap
from typing import Dict, Iterator, Optional, Tuple, Union

from ..arch.backend import Backend, CycleReport
from ..arch.configs import DesignPoint, get_design_point
from ..arch.isa import GemminiInstruction, InstructionStream, ScalarWork, VectorInstruction
from ..matlib import MatlibProgram
from .lower_gemmini import GemminiLoweringOptions, gemmini_blocks, gemmini_plan
from .lower_scalar import ScalarLoweringOptions, scalar_blocks
from .lower_vector import VectorLoweringOptions, vector_blocks, vector_plan
from .passes import fuse_elementwise, plan_scratchpad_residency

__all__ = ["CompilationResult", "CodegenFlow", "OPTIMIZATION_LEVELS",
           "lowering_options", "lowering"]


OPTIMIZATION_LEVELS: Dict[str, tuple] = {
    "scalar": ("library", "eigen"),
    "vector": ("library", "unrolled", "fused"),
    "systolic": ("library", "cisc", "static", "scratchpad", "elementwise", "optimized"),
}


def lowering_options(point: DesignPoint, level: str, lmul: int = 1,
                     sync_granularity: Optional[int] = None):
    """Lowering options for a design point at an optimization level.

    This is how a named level maps onto lowering knobs.  Systolic options
    are fitted to the point's array: its scratchpad size and mesh, and no
    pooled MVOUTs on an array without a pooling engine.
    """
    category = point.category
    valid = OPTIMIZATION_LEVELS[category]
    if level not in valid:
        raise ValueError("level {!r} is not valid for {} backends; pick one of {}".format(
            level, category, ", ".join(valid)))

    if category == "scalar":
        return ScalarLoweringOptions(style=level)

    if category == "vector":
        vlen = point.config.vlen
        if level == "library":
            return VectorLoweringOptions.library(lmul=lmul, vlen=vlen)
        if level == "unrolled":
            return VectorLoweringOptions.unrolled(lmul=lmul, vlen=vlen)
        return VectorLoweringOptions.fused(lmul=lmul, vlen=vlen)

    # systolic
    factories = {
        "library": GemminiLoweringOptions.library,
        "cisc": GemminiLoweringOptions.cisc,
        "static": GemminiLoweringOptions.unrolled_static,
        "scratchpad": GemminiLoweringOptions.scratchpad,
        "elementwise": GemminiLoweringOptions.elementwise_engines,
        "optimized": GemminiLoweringOptions.optimized,
    }
    config = point.config
    updates = {"scratchpad_kb": config.scratchpad_kb, "mesh_dim": config.mesh_rows}
    if sync_granularity is not None:
        updates["sync_granularity"] = sync_granularity
    if not config.has_pooling_engine:
        updates["use_pooling"] = False
    return replace(factories[level](), **updates)


# A design-space sweep lowers the same program at hundreds of (point, level)
# pairs; these analyses depend only on the program, so they are cached on
# the (hashable, immutable-by-convention) program object.  A sweep visits
# one program at a time, so a few entries suffice.

@lru_cache(maxsize=8)
def _fused_program(program: MatlibProgram) -> MatlibProgram:
    return fuse_elementwise(program).program


@lru_cache(maxsize=8)
def _op_signatures(program: MatlibProgram) -> Tuple[int, ...]:
    return program.op_signatures()


@lru_cache(maxsize=8)
def _vector_plan(program: MatlibProgram, fusion: bool):
    return vector_plan(program, fusion)


@lru_cache(maxsize=8)
def _gemmini_plan(program: MatlibProgram):
    return gemmini_plan(program)


@lru_cache(maxsize=32)
def _resident_buffers(program: MatlibProgram, scratchpad_kb: int):
    plan = plan_scratchpad_residency(program, scratchpad_kb=scratchpad_kb)
    return tuple(plan.resident_buffers)


def lowering(program: MatlibProgram, point: DesignPoint, level: str,
             lmul: int = 1, sync_granularity: Optional[int] = None
             ) -> Tuple[MatlibProgram, object, Iterator[tuple]]:
    """``(program to lower, options, blocks)`` for one compile.

    The single place a (point, level) is turned into instructions: one
    block, a tuple of records, per op.  The trace fidelity
    (:meth:`CodegenFlow.lower`) materializes the records, the model
    fidelity (:func:`repro.arch.cycle_model.model_report`) prices the
    blocks as they are generated.
    """
    options = lowering_options(point, level, lmul=lmul,
                               sync_granularity=sync_granularity)
    if point.category == "scalar":
        return program, options, scalar_blocks(program, options,
                                               _op_signatures(program))
    if point.category == "vector":
        if level == "fused":
            # fused: operator fusion at the program level plus
            # register-resident temporaries at the lowering level.
            program = _fused_program(program)
        return program, options, vector_blocks(
            _vector_plan(program, options.keep_temporaries_in_registers),
            options)
    return program, options, gemmini_blocks(
        _gemmini_plan(program), options,
        _resident_buffers(program, options.scratchpad_kb))


# The instruction class and stream tag each category's records build.
_STREAMS = {
    "scalar": (ScalarWork, "scalar"),
    "vector": (VectorInstruction, "vector"),
    "systolic": (GemminiInstruction, "gemmini"),
}


@dataclass
class CompilationResult:
    """A lowered instruction stream plus its timing report."""

    design_point: DesignPoint
    level: str
    program: MatlibProgram
    stream: InstructionStream
    report: CycleReport

    @property
    def cycles(self) -> float:
        return self.report.total_cycles

    def speedup_over(self, baseline: "CompilationResult") -> float:
        if self.cycles <= 0:
            return float("inf")
        return baseline.cycles / self.cycles


class CodegenFlow:
    """Compile matlib programs for a design point at an optimization level."""

    def __init__(self, lmul: int = 1) -> None:
        self.lmul = lmul

    # -- lowering -----------------------------------------------------------------
    def lower(self, program: MatlibProgram, design_point: Union[str, DesignPoint],
              level: str, lmul: Optional[int] = None,
              sync_granularity: Optional[int] = None) -> InstructionStream:
        point = self._resolve(design_point)
        program, _, blocks = lowering(
            program, point, level, lmul=lmul if lmul is not None else self.lmul,
            sync_granularity=sync_granularity)
        instruction, backend = _STREAMS[point.category]
        return InstructionStream(
            starmap(instruction, chain.from_iterable(blocks)),
            backend=backend, name=program.name)

    # -- compile + time --------------------------------------------------------------
    def compile(self, program: MatlibProgram, design_point: Union[str, DesignPoint],
                level: str, backend: Optional[Backend] = None,
                **lower_kwargs) -> CompilationResult:
        point = self._resolve(design_point)
        stream = self.lower(program, point, level, **lower_kwargs)
        backend = backend or point.backend()
        report = backend.run(stream)
        return CompilationResult(design_point=point, level=level, program=program,
                                 stream=stream, report=report)

    def best_level(self, program: MatlibProgram,
                   design_point: Union[str, DesignPoint]) -> CompilationResult:
        """Compile at every level and return the fastest result."""
        point = self._resolve(design_point)
        results = [self.compile(program, point, level)
                   for level in OPTIMIZATION_LEVELS[point.category]]
        return min(results, key=lambda result: result.cycles)

    # -- helpers ------------------------------------------------------------------------
    @staticmethod
    def _resolve(design_point: Union[str, DesignPoint]) -> DesignPoint:
        if isinstance(design_point, DesignPoint):
            return design_point
        return get_design_point(design_point)
