"""Backend interface and cycle reporting.

Every architecture model prices an instruction stream and produces a
:class:`CycleReport`: total cycles, a per-kernel breakdown, and a
per-category breakdown (compute / memory / issue / stall / overhead).  The
categories are the quantities the paper's characterization reasons about
when explaining why an optimization helps a particular architecture.

Each backend has one pricing loop, :meth:`Backend.price`, over instruction
records (see :mod:`repro.arch.isa`).  :meth:`Backend.run` feeds it the
records read back from a materialized :class:`InstructionStream`; the
model fidelity (:func:`repro.arch.cycle_model.model_report`) feeds it the
lowering's records directly, so both price every instruction identically.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, Iterable, Iterator, Tuple

from .isa import InstructionStream

__all__ = ["CycleCategory", "CycleReport", "StreamCounters", "Backend",
           "category_sums"]


class CycleCategory:
    """Names of cycle-accounting categories (plain constants)."""

    COMPUTE = "compute"
    MEMORY = "memory"
    ISSUE = "issue"
    STALL = "stall"
    OVERHEAD = "overhead"

    ALL = (COMPUTE, MEMORY, ISSUE, STALL, OVERHEAD)


@dataclass
class CycleReport:
    """Timing result of running an instruction stream on a backend."""

    backend: str
    total_cycles: float
    cycles_by_kernel: Dict[str, float] = field(default_factory=dict)
    cycles_by_category: Dict[str, float] = field(default_factory=dict)
    instruction_count: int = 0
    flops: int = 0

    # -- derived metrics ------------------------------------------------------
    def flops_per_cycle(self) -> float:
        if self.total_cycles <= 0:
            return 0.0
        return self.flops / self.total_cycles

    def utilization(self, peak_flops_per_cycle: float) -> float:
        """Achieved fraction of the backend's peak FLOP throughput."""
        if peak_flops_per_cycle <= 0:
            return 0.0
        return min(self.flops_per_cycle() / peak_flops_per_cycle, 1.0)

    def kernel_cycles(self, kernel: str) -> float:
        return self.cycles_by_kernel.get(kernel, 0.0)

    def category_fraction(self, category: str) -> float:
        if self.total_cycles <= 0:
            return 0.0
        return self.cycles_by_category.get(category, 0.0) / self.total_cycles

    def latency_seconds(self, frequency_hz: float) -> float:
        """Wall-clock latency when the backend runs at a clock frequency."""
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        return self.total_cycles / frequency_hz

    def scaled(self, factor: float) -> "CycleReport":
        """Report for ``factor`` repetitions of the same stream (e.g. ADMM
        iterations per solve)."""
        return CycleReport(
            backend=self.backend,
            total_cycles=self.total_cycles * factor,
            cycles_by_kernel={k: v * factor for k, v in self.cycles_by_kernel.items()},
            cycles_by_category={k: v * factor for k, v in self.cycles_by_category.items()},
            instruction_count=int(self.instruction_count * factor),
            flops=int(self.flops * factor),
        )

    def merged(self, other: "CycleReport") -> "CycleReport":
        """Concatenate two reports (e.g. per-kernel reports into a solve)."""
        merged_kernels = dict(self.cycles_by_kernel)
        for key, value in other.cycles_by_kernel.items():
            merged_kernels[key] = merged_kernels.get(key, 0.0) + value
        merged_categories = dict(self.cycles_by_category)
        for key, value in other.cycles_by_category.items():
            merged_categories[key] = merged_categories.get(key, 0.0) + value
        return CycleReport(
            backend=self.backend,
            total_cycles=self.total_cycles + other.total_cycles,
            cycles_by_kernel=merged_kernels,
            cycles_by_category=merged_categories,
            instruction_count=self.instruction_count + other.instruction_count,
            flops=self.flops + other.flops,
        )


def category_sums(*entries: Tuple[str, float, bool]) -> Dict[str, float]:
    """``cycles_by_category`` from ``(category, sum, charged)`` entries.

    A category appears only once some instruction charged it a cost.
    """
    return {category: cycles for category, cycles, charged in entries
            if charged}


@dataclass
class StreamCounters:
    """Stream-derived event counts the mapping studies (Figs. 6-9) plot.

    Fences, DRAM staging transfers and RoCC commands are zero for
    non-systolic streams.
    """

    instructions: int = 0
    fences: int = 0
    dram_transfers: int = 0
    rocc_instructions: int = 0


class Backend(abc.ABC):
    """Common interface for the scalar, vector, and systolic timing models."""

    name: str = "backend"
    instruction_type: type              # the ISA class the backend executes

    def run(self, stream: InstructionStream) -> CycleReport:
        """Time an instruction stream."""
        return self.price(self._records(stream))[0]

    @abc.abstractmethod
    def price(self, records: Iterable[tuple]
              ) -> Tuple[CycleReport, StreamCounters]:
        """Time instruction records in stream order.

        Each cost is added to the total, its kernel's bucket and its
        category's bucket in stream order, so the float sums do not depend
        on whether the records came from a lowering or a stream.
        """

    @property
    @abc.abstractmethod
    def peak_flops_per_cycle(self) -> float:
        """Ideal FLOP throughput of the backend's datapath."""

    def _records(self, stream: InstructionStream) -> Iterator[tuple]:
        kind = self.instruction_type
        record = attrgetter(*(f.name for f in fields(kind)))
        for instruction in stream:
            if not isinstance(instruction, kind):
                raise TypeError("{} can only execute {}, got {}".format(
                    self.name, kind.__name__, type(instruction).__name__))
            yield record(instruction)
