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

:func:`vector_records` is the lowering; it yields plain records that
:func:`lower_vector` materializes and the cycle model prices directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from ..arch.isa import InstructionStream, VectorInstruction, VectorOpcode
from ..matlib import MatlibProgram, OpKind, OpRecord
from ..matlib.program import BufferInfo

__all__ = ["VectorLoweringOptions", "vector_records", "lower_vector"]


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


def vector_records(program: MatlibProgram, options: VectorLoweringOptions,
                   buffers: Dict[str, BufferInfo],
                   consumers: Sequence[Sequence[int]]) -> Iterator[tuple]:
    """The RVV lowering: one ``VectorInstruction`` record per instruction.

    ``buffers`` is ``program.buffers()`` and ``consumers[index]`` is
    ``program.consumers_of(index)``; callers pass them in so a sweep can
    compute them once per program.
    """
    # Enum members read as locals: attribute access on an Enum class is slow.
    VARITH, VMACC = VectorOpcode.VARITH, VectorOpcode.VMACC
    VLOAD, VSTORE = VectorOpcode.VLOAD, VectorOpcode.VSTORE
    SCALAR, VSETVL = VectorOpcode.SCALAR, VectorOpcode.VSETVL
    VREDUCE = VectorOpcode.VREDUCE
    GEMV, GEMM = OpKind.GEMV, OpKind.GEMM
    ELEMENTWISE, REDUCTION = OpKind.ELEMENTWISE, OpKind.REDUCTION
    DATA_MOVEMENT = OpKind.DATA_MOVEMENT
    element_bytes = options.element_bytes
    lmul = options.lmul
    unroll = options.unroll_factor
    fusion = options.keep_temporaries_in_registers
    per_instruction = options.max_elements_per_instruction
    last_vl: Optional[int] = None
    in_registers: Set[str] = set()

    def vsetvl(kernel: str, vl: int) -> Tuple[tuple, ...]:
        nonlocal last_vl
        if options.elide_redundant_vsetvl and last_vl == vl:
            return ()
        last_vl = vl
        return ((kernel, VSETVL, 0, element_bytes, lmul, False),)

    def scalar(kernel: str, count: float) -> Tuple[tuple, ...]:
        count = int(round(count))
        if count > 0:
            return ((kernel, SCALAR, count, element_bytes, 1, False),)
        return ()

    def needs_load(name: str) -> bool:
        return not fusion or name not in in_registers

    def stays_in_registers(op: OpRecord, index: int) -> bool:
        """Whether the result stays in registers instead of being stored.

        It can when fusion is enabled, it is a single-use temporary, and
        its sole consumer is nearby in program order (so register pressure
        stays bounded).
        """
        if not fusion:
            return False
        info = buffers.get(op.output)
        if info is None or not info.is_temporary or not info.single_use:
            return False
        after = consumers[index]
        if after and after[0] - index <= 6:
            in_registers.add(op.output)
            return True
        return False

    for index, op in enumerate(program.ops):
        kernel = op.kernel or "<untagged>"
        yield from scalar(kernel, options.call_overhead_scalars)
        kind = op.kind
        if (kind is GEMV or kind is GEMM) and op.name in ("gemm", "outer"):
            rows, inner = op.shapes[0]
            cols = op.out_shape[1] if len(op.out_shape) == 2 else 1
            load = (kernel, VLOAD, rows, element_bytes, lmul, False)
            macc = (kernel, VMACC, rows, element_bytes, lmul, unroll == 1)
            for _ in range(cols):
                yield from vsetvl(kernel, rows)
                yield (kernel, VARITH, rows, element_bytes, lmul, False)
                yield from scalar(kernel, (3.0 if unroll == 1 else 1.25) * inner)
                for _ in range(inner):
                    yield load
                    yield macc
                yield (kernel, VSTORE, rows, element_bytes, lmul, False)
        elif kind is GEMV or kind is GEMM:
            if op.name == "gemv_t":
                rows, inner = op.shapes[0][1], op.shapes[0][0]
            else:
                rows, inner = op.shapes[0][0], op.shapes[0][1]
            yield from vsetvl(kernel, rows)
            # Zero (or load) the accumulator register.
            yield (kernel, VARITH, rows, element_bytes, lmul, False)
            # Scalar bookkeeping: per-column address computation and the
            # scalar operand load for vfmacc.vf.  Unrolling amortizes most
            # of it.
            yield from scalar(kernel, (4.0 if unroll == 1 else 1.0) * inner)
            # With a single accumulator every vfmacc depends on the previous
            # one; unrolled code rotates accumulators to hide the latency.
            load = (kernel, VLOAD, rows, element_bytes, lmul, False)
            chained = (kernel, VMACC, rows, element_bytes, lmul, True)
            rotated = (kernel, VMACC, rows, element_bytes, lmul, False)
            for column in range(inner):
                yield load
                yield chained if (column + 1) % unroll == 0 else rotated
            # Combine the partial accumulators.
            combine = (kernel, VARITH, rows, element_bytes, lmul, True)
            for _ in range(min(unroll, inner) - 1):
                yield combine
            if not stays_in_registers(op, index):
                yield (kernel, VSTORE, rows, element_bytes, lmul, False)
        elif kind is ELEMENTWISE:
            elements = max(op.output_elements, 1)
            yield from vsetvl(kernel, elements)
            chunks = max(-(-elements // per_instruction), 1)
            chunk = min(elements, per_instruction)
            loads = 0
            for name, shape in zip(op.inputs, op.shapes):
                if not shape:
                    continue
                if needs_load(name):
                    loads += 1
                else:
                    in_registers.discard(name)
            load = (kernel, VLOAD, chunk, element_bytes, lmul, False)
            for _ in range(loads * chunks):
                yield load
            # The arithmetic itself; clip/axpy style ops need two passes.
            passes = 2 if op.flops >= 2 * elements else 1
            arith = (kernel, VARITH, chunk, element_bytes, lmul, False)
            for _ in range(chunks * passes):
                yield arith
            yield from scalar(kernel, 2.0 if unroll == 1 else 0.5)
            if not stays_in_registers(op, index):
                store = (kernel, VSTORE, chunk, element_bytes, lmul, False)
                for _ in range(chunks):
                    yield store
        elif kind is REDUCTION:
            elements = (max(max((max(s) if s else 1) for s in op.shapes), 1)
                        if op.shapes else 1)
            yield from vsetvl(kernel, elements)
            for name, shape in zip(op.inputs, op.shapes):
                if shape and needs_load(name):
                    yield (kernel, VLOAD, elements, element_bytes, lmul, False)
            arith = (kernel, VARITH, elements, element_bytes, lmul, False)
            if op.name == "max_abs_diff":
                yield arith   # subtract
            if op.name in ("max_abs_diff", "max_abs_reduce"):
                yield arith   # abs
            yield (kernel, VREDUCE, elements, element_bytes, lmul, False)
            yield from scalar(kernel, 1.0)
        elif kind is DATA_MOVEMENT:
            elements = max(op.output_elements, 1)
            yield (kernel, VLOAD, elements, element_bytes, lmul, False)
            yield (kernel, VSTORE, elements, element_bytes, lmul, False)
        else:
            yield from scalar(kernel, max(op.flops, 1))


def lower_vector(program: MatlibProgram,
                 options: VectorLoweringOptions = VectorLoweringOptions()
                 ) -> InstructionStream:
    """Lower a matlib program to an RVV instruction stream."""
    consumers = [program.consumers_of(index) for index in range(len(program.ops))]
    records = vector_records(program, options, program.buffers(), consumers)
    return InstructionStream(starmap(VectorInstruction, records),
                             backend="vector", name=program.name)
