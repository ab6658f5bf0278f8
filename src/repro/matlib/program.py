"""matlib programs: replayable, analyzable operator sequences.

A :class:`MatlibProgram` wraps a recorded :class:`~repro.matlib.trace.Trace`
and adds the dataflow queries that the code-generation flow needs: which op
produced a buffer, which ops consume it, whether a value is only ever used by
the next op (a fusion opportunity), and which buffers are live across the
whole program (scratchpad-residency candidates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Set, Tuple

from .trace import OpKind, OpRecord, Trace, tracing

__all__ = ["BufferInfo", "MatlibProgram", "capture_program"]


@dataclass
class BufferInfo:
    """Lifetime and usage information for one named buffer in a program."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    producer_indices: List[int]
    consumer_indices: List[int]

    @property
    def is_input(self) -> bool:
        """True when the buffer is read before it is ever produced."""
        if not self.consumer_indices:
            return False
        if not self.producer_indices:
            return True
        return min(self.consumer_indices) < min(self.producer_indices)

    @property
    def is_temporary(self) -> bool:
        """True when the buffer is produced and consumed inside the program."""
        return bool(self.producer_indices) and bool(self.consumer_indices)

    @property
    def single_use(self) -> bool:
        return len(self.consumer_indices) == 1

    @property
    def elements(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count


class MatlibProgram:
    """An ordered operator sequence with dataflow metadata."""

    def __init__(self, trace: Trace, name: str = "program") -> None:
        self.name = name
        self.trace = trace

    @property
    def ops(self) -> List[OpRecord]:
        return self.trace.records

    def __len__(self) -> int:
        return len(self.trace)

    def __iter__(self):
        return iter(self.trace)

    def __getitem__(self, index):
        return self.trace[index]

    # -- aggregate properties ---------------------------------------------
    @property
    def total_flops(self) -> int:
        return self.trace.total_flops

    @property
    def total_bytes(self) -> int:
        return self.trace.total_bytes

    def kernels(self) -> List[str]:
        return self.trace.kernels()

    def flops_by_kernel(self) -> Dict[str, int]:
        return self.trace.flops_by_kernel()

    # -- dataflow analysis --------------------------------------------------
    def buffers(self) -> Dict[str, BufferInfo]:
        """Collect lifetime information for every named buffer."""
        infos: Dict[str, BufferInfo] = {}

        def _get(name: str, shape: Tuple[int, ...], dtype: str) -> BufferInfo:
            if name not in infos:
                infos[name] = BufferInfo(name=name, shape=shape, dtype=dtype,
                                         producer_indices=[], consumer_indices=[])
            return infos[name]

        for index, op in enumerate(self.ops):
            for input_name, shape in zip(op.inputs, op.shapes):
                if input_name.startswith("<"):
                    continue
                _get(input_name, shape, op.dtype).consumer_indices.append(index)
            _get(op.output, op.out_shape, op.dtype).producer_indices.append(index)
        return infos

    def consumers(self) -> List[List[int]]:
        """For every op, the indices of later ops that read its output
        before it is overwritten again, in one pass over the program."""
        consumers: List[List[int]] = [[] for _ in self.ops]
        producer: Dict[str, int] = {}
        for index, op in enumerate(self.ops):
            for name in set(op.inputs):
                source = producer.get(name)
                if source is not None:
                    consumers[source].append(index)
            producer[op.output] = index
        return consumers

    def op_signatures(self) -> Tuple[int, ...]:
        """Each op's signature id: ops share one when they differ only in
        the names of the buffers they read and write.

        A lowering that depends on an op only through its signature (and
        state it tracks itself) lowers such ops alike.  Whether an input is
        a ``"<"`` pseudo-buffer is part of the signature.
        """
        ids: Dict[tuple, int] = {}
        return tuple(
            ids.setdefault((op.kernel, op.kind, op.name, op.shapes,
                            op.out_shape, op.dtype, op.flops, op.bytes_read,
                            op.bytes_written,
                            tuple(name.startswith("<") for name in op.inputs)),
                           len(ids))
            for op in self.ops)

    def fusion_candidates(self) -> List[Tuple[int, int]]:
        """Pairs of op indices (producer, consumer) that are fusable.

        A pair is fusable when both ops are elementwise, the consumer is the
        sole reader of the producer's output, and they are adjacent in
        program order — the pattern the paper exploits by keeping temporaries
        in vector registers instead of spilling through memory
        (Section 4.1.2).
        """
        candidates: List[Tuple[int, int]] = []
        consumers = self.consumers()
        for index, op in enumerate(self.ops[:-1]):
            nxt = self.ops[index + 1]
            if op.kind is not OpKind.ELEMENTWISE:
                continue
            if nxt.kind not in (OpKind.ELEMENTWISE, OpKind.REDUCTION):
                continue
            if op.output not in nxt.inputs:
                continue
            if consumers[index] != [index + 1]:
                continue
            candidates.append((index, index + 1))
        return candidates

    def persistent_buffers(self) -> Set[str]:
        """Buffers read but never produced by the program (problem data).

        These are the matrices the paper pins into Gemmini's scratchpad
        (Figure 8): dynamics, gains, and cost matrices reused every
        iteration.
        """
        return {name for name, info in self.buffers().items() if info.is_input}

    # -- misc ---------------------------------------------------------------
    def subprogram(self, kernel: str) -> "MatlibProgram":
        return MatlibProgram(self.trace.filter(kernel=kernel),
                             name="{}::{}".format(self.name, kernel))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "MatlibProgram(name={!r}, ops={}, flops={})".format(
            self.name, len(self.ops), self.total_flops)


def capture_program(fn: Callable[[], None], name: str = "program") -> MatlibProgram:
    """Run ``fn`` under an active trace and return the recorded program."""
    with tracing() as trace:
        fn()
    return MatlibProgram(trace, name=name)
