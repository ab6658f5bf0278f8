"""Operation tracing for matlib programs.

Every matlib operator can record an :class:`OpRecord` into the currently
active :class:`Trace`.  A trace of one TinyMPC ADMM iteration is the
"program" that the code-generation flow (``repro.codegen``) optimizes and
that the architecture backends (``repro.arch``) time.

The trace is the Python stand-in for the C abstract syntax tree that the
paper's matlib optimization pass traverses (Section 4.3).
"""

from __future__ import annotations

import contextlib
import enum
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "OpKind",
    "OpRecord",
    "Trace",
    "active_trace",
    "tracing",
    "kernel_scope",
    "current_kernel",
]


class OpKind(enum.Enum):
    """Classification of matlib operators.

    Mirrors the paper's three workload categories (Section 3.1): iterative
    matrix-vector work, elementwise vector work, and global reductions, plus
    explicit data movement which matters for the Gemmini mapping.
    """

    GEMM = "gemm"
    GEMV = "gemv"
    ELEMENTWISE = "elementwise"
    REDUCTION = "reduction"
    DATA_MOVEMENT = "data_movement"
    SCALAR = "scalar"


@dataclass(frozen=True)
class OpRecord:
    """A single recorded matlib operator invocation."""

    name: str
    kind: OpKind
    inputs: Tuple[str, ...]
    output: str
    shapes: Tuple[Tuple[int, ...], ...]
    out_shape: Tuple[int, ...]
    dtype: str
    flops: int
    bytes_read: int
    bytes_written: int
    kernel: Optional[str] = None
    fused_from: Tuple[str, ...] = ()

    @property
    def output_elements(self) -> int:
        count = 1
        for dim in self.out_shape:
            count *= dim
        return count

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of traffic (0 when the op moves no data)."""
        if self.total_bytes == 0:
            return 0.0
        return self.flops / self.total_bytes

    def with_kernel(self, kernel: str) -> "OpRecord":
        return replace(self, kernel=kernel)


class Trace:
    """An ordered list of :class:`OpRecord` with aggregation helpers."""

    def __init__(self, records: Optional[Iterable[OpRecord]] = None) -> None:
        self.records: List[OpRecord] = list(records) if records else []

    # -- recording -------------------------------------------------------
    def append(self, record: OpRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[OpRecord]) -> None:
        self.records.extend(records)

    def clear(self) -> None:
        self.records.clear()

    # -- container protocol ----------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[OpRecord]:
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    # -- aggregation -----------------------------------------------------
    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.records)

    @property
    def total_bytes(self) -> int:
        return sum(r.total_bytes for r in self.records)

    def count(self, kind: Optional[OpKind] = None) -> int:
        if kind is None:
            return len(self.records)
        return sum(1 for r in self.records if r.kind is kind)

    def filter(self, *, kind: Optional[OpKind] = None,
               kernel: Optional[str] = None,
               name: Optional[str] = None) -> "Trace":
        records = self.records
        if kind is not None:
            records = [r for r in records if r.kind is kind]
        if kernel is not None:
            records = [r for r in records if r.kernel == kernel]
        if name is not None:
            records = [r for r in records if r.name == name]
        return Trace(records)

    def kernels(self) -> List[str]:
        """Kernel tags in first-appearance order."""
        seen: Dict[str, None] = {}
        for record in self.records:
            if record.kernel is not None and record.kernel not in seen:
                seen[record.kernel] = None
        return list(seen)

    def by_kernel(self) -> Dict[str, "Trace"]:
        grouped: Dict[str, Trace] = {}
        for record in self.records:
            key = record.kernel or "<untagged>"
            grouped.setdefault(key, Trace()).append(record)
        return grouped

    def flops_by_kernel(self) -> Dict[str, int]:
        return {k: t.total_flops for k, t in self.by_kernel().items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "Trace({} ops, {} flops)".format(len(self.records), self.total_flops)


# ---------------------------------------------------------------------------
# Active-trace context management
# ---------------------------------------------------------------------------

class _TraceState(threading.local):
    def __init__(self) -> None:
        self.trace: Optional[Trace] = None
        self.kernel_stack: List[str] = []


_STATE = _TraceState()


def active_trace() -> Optional[Trace]:
    """Return the trace that matlib operators are currently recording into."""
    return _STATE.trace


def current_kernel() -> Optional[str]:
    """Return the innermost kernel tag, if any."""
    if _STATE.kernel_stack:
        return _STATE.kernel_stack[-1]
    return None


@contextlib.contextmanager
def tracing(trace: Optional[Trace] = None):
    """Context manager that activates a trace for matlib recording.

    Yields the trace so callers can write ``with tracing() as t:`` and then
    inspect ``t`` afterwards.  Nesting replaces the active trace for the
    duration of the inner block.
    """
    if trace is None:
        trace = Trace()
    previous = _STATE.trace
    _STATE.trace = trace
    try:
        yield trace
    finally:
        _STATE.trace = previous


@contextlib.contextmanager
def kernel_scope(name: str):
    """Tag all operators recorded inside the block with a kernel name."""
    _STATE.kernel_stack.append(name)
    try:
        yield
    finally:
        _STATE.kernel_stack.pop()


def record(record_: OpRecord) -> OpRecord:
    """Append a record to the active trace (no-op when not tracing)."""
    trace = _STATE.trace
    if trace is not None:
        kernel = current_kernel()
        if kernel is not None and record_.kernel is None:
            record_ = record_.with_kernel(kernel)
        trace.append(record_)
    return record_
