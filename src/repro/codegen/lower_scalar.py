"""Lowering matlib programs to scalar-core instruction streams.

Two software styles are modelled, matching the paper's scalar baselines:

* ``library`` — the out-of-box matlib C library: every operator is a
  function call with dynamically computed shapes and per-element loops;
* ``eigen`` — the hand-optimized Eigen-style code used as the paper's
  scalar baseline: fixed-size operators are inlined and unrolled, so the
  call overhead disappears and loop bookkeeping is amortized.

:func:`scalar_blocks` is the lowering: it yields one block (a tuple of
plain records) per op, which :func:`lower_scalar` materializes and the cycle
model prices directly.  An op's record depends only on its signature
(:meth:`~repro.matlib.MatlibProgram.op_signatures`) and the options, so ops
that share a signature share one block object.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, starmap
from typing import Dict, Iterator, Sequence

from ..arch.isa import InstructionStream, ScalarWork
from ..matlib import MatlibProgram, OpKind, OpRecord

__all__ = ["ScalarLoweringOptions", "scalar_blocks", "lower_scalar"]


@dataclass(frozen=True)
class ScalarLoweringOptions:
    """Knobs for scalar lowering."""

    style: str = "library"       # "library" or "eigen"
    unroll_factor: int = 1       # manual unrolling of the element loops

    def __post_init__(self) -> None:
        if self.style not in ("library", "eigen"):
            raise ValueError("style must be 'library' or 'eigen'")
        if self.unroll_factor < 1:
            raise ValueError("unroll_factor must be >= 1")


def _dependence_chain(op: OpRecord) -> int:
    """Longest serial FLOP chain within the operator."""
    if op.kind in (OpKind.GEMV, OpKind.GEMM):
        # Each output element accumulates over the inner dimension.
        if op.shapes and len(op.shapes[0]) == 2:
            inner = op.shapes[0][1] if op.name != "gemv_t" else op.shapes[0][0]
        else:
            inner = op.out_shape[0] if op.out_shape else 1
        return 2 * max(inner, 1)
    if op.kind is OpKind.REDUCTION:
        return max(op.output_elements, *(max(s) if s else 1 for s in op.shapes)) \
            if op.shapes else op.output_elements
    return 2   # independent elementwise work


def _loop_iterations(op: OpRecord, options: ScalarLoweringOptions) -> int:
    if options.style == "library":
        # The matlib C library walks un-unrolled element loops with per-element
        # loads/stores and index arithmetic: every FLOP carries roughly two
        # loop iterations worth of bookkeeping on a simple core.
        iterations = max(2 * op.flops, op.output_elements)
    else:
        # Eigen-style fixed-size code is fully unrolled by the compiler; only
        # a small amount of outer-loop control remains.
        iterations = max(op.output_elements // 4, 1)
    return max(iterations // options.unroll_factor, 1)


def _scalar_record(op: OpRecord, options: ScalarLoweringOptions) -> tuple:
    """The ``ScalarWork`` record of one operator."""
    if options.style == "library":
        op_calls = 1
        memory_bytes = op.total_bytes
    else:
        # Eigen-style code inlines fixed-size operators: the call overhead
        # disappears and compiler register allocation removes most
        # temporary traffic (results feeding the next expression stay in
        # registers).
        op_calls = 0
        memory_bytes = op.bytes_read // 2 + op.bytes_written // 2
    if op.kind is OpKind.DATA_MOVEMENT and op.flops == 0:
        memory_bytes = op.total_bytes
    return (op.kernel or "<untagged>", op.flops, memory_bytes, op_calls,
            _loop_iterations(op, options), _dependence_chain(op))


def scalar_blocks(program: MatlibProgram, options: ScalarLoweringOptions,
                  signatures: Sequence[int]) -> Iterator[tuple]:
    """The scalar lowering: one block of one ``ScalarWork`` record per op.

    ``signatures`` is ``program.op_signatures()``; callers pass it in so a
    sweep can compute it once per program.  The blocks are memoized for
    this lowering only.
    """
    blocks: Dict[int, tuple] = {}
    for op, signature in zip(program.ops, signatures):
        block = blocks.get(signature)
        if block is None:
            block = blocks[signature] = (_scalar_record(op, options),)
        yield block


def lower_scalar(program: MatlibProgram,
                 options: ScalarLoweringOptions = ScalarLoweringOptions()
                 ) -> InstructionStream:
    """Lower a matlib program to a stream of ScalarWork blocks."""
    blocks = scalar_blocks(program, options, program.op_signatures())
    return InstructionStream(starmap(ScalarWork, chain.from_iterable(blocks)),
                             backend="scalar", name=program.name)
