"""Lowering matlib programs to RVV (Saturn) instruction streams.

The lowering models the three software styles the paper compares on vector
hardware (Section 4.1):

* **library** — out-of-box vectorized matlib: every operator call loads its
  operands with RVV load intrinsics, computes, and stores the result back,
  with per-call ``vsetvl`` and scalar bookkeeping;
* **unrolled** — aggressive software loop unrolling: scalar bookkeeping is
  amortized, GEMV accumulation chains are split across multiple
  accumulators so dependent latency is hidden;
* **fused** — operator fusion on top of unrolling: single-use temporaries
  stay in vector registers, removing the store/re-load round trips between
  matlib calls.

Register grouping (LMUL) is an orthogonal knob: it reduces the number of
instructions for long elementwise vectors but occupies the datapath for the
whole register group, which hurts the small iterative kernels (Figure 4).

:func:`vector_blocks` is the lowering: it yields one block (a tuple of
plain records) per op, which :func:`lower_vector` materializes and the
cycle model prices directly.  An op's block is a pure function of its step
in the program's :func:`vector_plan` (its signature plus the register-fusion
decisions made for it), the options, and whether the preceding ``vsetvl``
already set its vector length; ops that agree on all three share one block
object.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, starmap
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..arch.isa import InstructionStream, VectorInstruction, VectorOpcode
from ..matlib import MatlibProgram, OpKind, OpRecord

__all__ = ["VectorLoweringOptions", "vector_plan", "vector_blocks",
           "lower_vector"]


@dataclass(frozen=True)
class VectorLoweringOptions:
    """Knobs for RVV lowering."""

    lmul: int = 1
    unroll_factor: int = 1
    keep_temporaries_in_registers: bool = False
    elide_redundant_vsetvl: bool = False
    vlen: int = 512
    element_bytes: int = 4
    # Scalar instructions spent per matlib call on the frontend (function
    # call, runtime vl computation, pointer setup, strip-mine loop control).
    # Hand-written / generated code is inlined and statically addressed.
    call_overhead_scalars: float = 70.0

    def __post_init__(self) -> None:
        if self.lmul not in (1, 2, 4, 8):
            raise ValueError("lmul must be 1, 2, 4, or 8")
        if self.unroll_factor < 1:
            raise ValueError("unroll_factor must be >= 1")

    @property
    def max_elements_per_instruction(self) -> int:
        return self.lmul * self.vlen // (self.element_bytes * 8)

    @classmethod
    def library(cls, lmul: int = 1, vlen: int = 512) -> "VectorLoweringOptions":
        return cls(lmul=lmul, vlen=vlen)

    @classmethod
    def unrolled(cls, lmul: int = 1, vlen: int = 512) -> "VectorLoweringOptions":
        return cls(lmul=lmul, unroll_factor=4, elide_redundant_vsetvl=True, vlen=vlen,
                   call_overhead_scalars=4.0)

    @classmethod
    def fused(cls, lmul: int = 1, vlen: int = 512) -> "VectorLoweringOptions":
        return cls(lmul=lmul, unroll_factor=4, keep_temporaries_in_registers=True,
                   elide_redundant_vsetvl=True, vlen=vlen, call_overhead_scalars=2.0)


# A program's vector plan: per op ``(step, vector length its vsetvl sets or
# None)``, and per step ``(op, inputs to load, result stays in registers)``.
VectorPlan = Tuple[Tuple[Tuple[int, Optional[int]], ...],
                   Tuple[Tuple[OpRecord, int, bool], ...]]


def _is_outer(op: OpRecord) -> bool:
    """GEMM-shaped ops lowered column by column (``gemm``, ``outer``)."""
    return op.kind in (OpKind.GEMV, OpKind.GEMM) and op.name in ("gemm", "outer")


def _vector_length(op: OpRecord) -> Optional[int]:
    """The vector length the op's ``vsetvl`` sets (``None``: no vsetvl)."""
    kind = op.kind
    if _is_outer(op):
        # One vsetvl per output column.
        cols = op.out_shape[1] if len(op.out_shape) == 2 else 1
        return op.shapes[0][0] if cols else None
    if kind is OpKind.GEMV or kind is OpKind.GEMM:
        return op.shapes[0][1] if op.name == "gemv_t" else op.shapes[0][0]
    if kind is OpKind.ELEMENTWISE:
        return max(op.output_elements, 1)
    if kind is OpKind.REDUCTION:
        return (max(max((max(s) if s else 1) for s in op.shapes), 1)
                if op.shapes else 1)
    return None


def vector_plan(program: MatlibProgram, fusion: bool) -> VectorPlan:
    """Each op's step and vector length, for :func:`vector_blocks`.

    With ``fusion`` (``keep_temporaries_in_registers``) a result stays in
    vector registers when it is a single-use temporary whose sole consumer
    is nearby in program order (so register pressure stays bounded), and a
    later op reading it skips the load.  These decisions depend only on the
    program, so they are made here once and folded into the steps.
    """
    signatures = program.op_signatures()
    if fusion:
        buffers = program.buffers()
        consumers = program.consumers()
    in_registers: Set[str] = set()
    step_ids: Dict[Tuple[int, int, bool], int] = {}
    steps: List[Tuple[OpRecord, int, bool]] = []
    ops: List[Tuple[int, Optional[int]]] = []
    for index, (op, signature) in enumerate(zip(program.ops, signatures)):
        kind = op.kind
        loads = 0
        if kind is OpKind.ELEMENTWISE or kind is OpKind.REDUCTION:
            for name, shape in zip(op.inputs, op.shapes):
                if not shape:
                    continue
                if name not in in_registers:
                    loads += 1
                elif kind is OpKind.ELEMENTWISE:
                    in_registers.discard(name)
        stays = False
        if fusion and (kind is OpKind.ELEMENTWISE or (
                kind in (OpKind.GEMV, OpKind.GEMM) and not _is_outer(op))):
            info = buffers.get(op.output)
            after = consumers[index]
            if (info is not None and info.is_temporary and info.single_use
                    and after and after[0] - index <= 6):
                in_registers.add(op.output)
                stays = True
        key = (signature, loads, stays)
        step = step_ids.get(key)
        if step is None:
            step = step_ids[key] = len(steps)
            steps.append((op, loads, stays))
        ops.append((step, _vector_length(op)))
    return tuple(ops), tuple(steps)


def _vector_block(op: OpRecord, loads: int, stays: bool,
                  options: VectorLoweringOptions, vl_set: bool) -> tuple:
    """One op's RVV instructions; ``vl_set`` elides its first vsetvl."""
    # Enum members read as locals: attribute access on an Enum class is slow.
    VARITH, VMACC = VectorOpcode.VARITH, VectorOpcode.VMACC
    VLOAD, VSTORE = VectorOpcode.VLOAD, VectorOpcode.VSTORE
    SCALAR, VSETVL = VectorOpcode.SCALAR, VectorOpcode.VSETVL
    VREDUCE = VectorOpcode.VREDUCE
    kernel = op.kernel or "<untagged>"
    element_bytes = options.element_bytes
    lmul = options.lmul
    unroll = options.unroll_factor
    records: List[tuple] = []
    emit = records.append

    def scalar(count: float) -> None:
        count = int(round(count))
        if count > 0:
            emit((kernel, SCALAR, count, element_bytes, 1, False))

    def vector(opcode: VectorOpcode, elements: int,
               sequential: bool = False) -> tuple:
        return (kernel, opcode, elements, element_bytes, lmul, sequential)

    scalar(options.call_overhead_scalars)
    kind = op.kind
    vl = _vector_length(op)
    if _is_outer(op):
        rows, inner = op.shapes[0]
        cols = op.out_shape[1] if len(op.out_shape) == 2 else 1
        load = vector(VLOAD, rows)
        macc = vector(VMACC, rows, unroll == 1)
        for column in range(cols):
            if not (vl_set or column and options.elide_redundant_vsetvl):
                emit(vector(VSETVL, 0))
            emit(vector(VARITH, rows))
            scalar((3.0 if unroll == 1 else 1.25) * inner)
            for _ in range(inner):
                emit(load)
                emit(macc)
            emit(vector(VSTORE, rows))
        return tuple(records)
    if vl is not None and not vl_set:
        emit(vector(VSETVL, 0))
    if kind is OpKind.GEMV or kind is OpKind.GEMM:
        rows = vl
        inner = op.shapes[0][0] if op.name == "gemv_t" else op.shapes[0][1]
        # Zero (or load) the accumulator register.
        emit(vector(VARITH, rows))
        # Scalar bookkeeping: per-column address computation and the scalar
        # operand load for vfmacc.vf.  Unrolling amortizes most of it.
        scalar((4.0 if unroll == 1 else 1.0) * inner)
        # With a single accumulator every vfmacc depends on the previous
        # one; unrolled code rotates accumulators to hide the latency.
        load = vector(VLOAD, rows)
        chained = vector(VMACC, rows, True)
        rotated = vector(VMACC, rows)
        for column in range(inner):
            emit(load)
            emit(chained if (column + 1) % unroll == 0 else rotated)
        # Combine the partial accumulators.
        records.extend((vector(VARITH, rows, True),) * (min(unroll, inner) - 1))
        if not stays:
            emit(vector(VSTORE, rows))
    elif kind is OpKind.ELEMENTWISE:
        elements = vl
        per_instruction = options.max_elements_per_instruction
        chunks = max(-(-elements // per_instruction), 1)
        chunk = min(elements, per_instruction)
        records.extend((vector(VLOAD, chunk),) * (loads * chunks))
        # The arithmetic itself; clip/axpy style ops need two passes.
        passes = 2 if op.flops >= 2 * elements else 1
        records.extend((vector(VARITH, chunk),) * (chunks * passes))
        scalar(2.0 if unroll == 1 else 0.5)
        if not stays:
            records.extend((vector(VSTORE, chunk),) * chunks)
    elif kind is OpKind.REDUCTION:
        elements = vl
        records.extend((vector(VLOAD, elements),) * loads)
        arith = vector(VARITH, elements)
        if op.name == "max_abs_diff":
            emit(arith)   # subtract
        if op.name in ("max_abs_diff", "max_abs_reduce"):
            emit(arith)   # abs
        emit(vector(VREDUCE, elements))
        scalar(1.0)
    elif kind is OpKind.DATA_MOVEMENT:
        elements = max(op.output_elements, 1)
        emit(vector(VLOAD, elements))
        emit(vector(VSTORE, elements))
    else:
        scalar(max(op.flops, 1))
    return tuple(records)


def vector_blocks(plan: VectorPlan, options: VectorLoweringOptions
                  ) -> Iterator[tuple]:
    """The RVV lowering: one block of ``VectorInstruction`` records per op.

    ``plan`` is :func:`vector_plan` of the program at
    ``options.keep_temporaries_in_registers``; callers pass it in so a sweep
    can plan once per program.  The blocks are memoized for this lowering
    only.
    """
    ops, steps = plan
    elide = options.elide_redundant_vsetvl
    blocks: Dict[int, tuple] = {}
    last_vl: Optional[int] = None
    for step, vl in ops:
        vl_set = elide and vl is not None and vl == last_vl
        key = 2 * step + vl_set
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = _vector_block(*steps[step], options, vl_set)
        if vl is not None:
            last_vl = vl
        yield block


def lower_vector(program: MatlibProgram,
                 options: VectorLoweringOptions = VectorLoweringOptions()
                 ) -> InstructionStream:
    """Lower a matlib program to an RVV instruction stream."""
    plan = vector_plan(program, options.keep_temporaries_in_registers)
    blocks = vector_blocks(plan, options)
    return InstructionStream(
        starmap(VectorInstruction, chain.from_iterable(blocks)),
        backend="vector", name=program.name)
