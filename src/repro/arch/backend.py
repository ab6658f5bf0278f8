"""Backend interface and cycle reporting.

Every architecture model prices an instruction stream and produces a
:class:`CycleReport`: total cycles, a per-kernel breakdown, and a
per-category breakdown (compute / memory / issue / stall / overhead).  The
categories are the quantities the paper's characterization reasons about
when explaining why an optimization helps a particular architecture.

Each backend has one pricing function, :meth:`Backend.price`, over
*blocks*: tuples of instruction records (see :mod:`repro.arch.isa`) in
stream order.  A lowering yields one block per op and hands out the same
block object for every op that lowers alike, so ``price`` turns each
distinct block into its cost addends once and replays the addends of the
whole stream.  :meth:`Backend.run` prices a materialized
:class:`InstructionStream` as one block; the model fidelity
(:func:`repro.arch.cycle_model.model_report`) prices the lowering's blocks
directly, so both price every instruction identically.

Every sum is a left fold in stream order (:func:`left_fold`): one rounding
per addition, as a running total would, so a sum does not depend on how the
stream was cut into blocks.  Compensated or pairwise sums (``np.sum``,
``math.fsum``, and ``sum()`` since Python 3.12) round differently and are
not used for cycles.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .isa import InstructionStream

__all__ = ["CycleCategory", "CycleReport", "StreamCounters", "Backend",
           "left_fold"]


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


def left_fold(values: np.ndarray) -> float:
    """``values`` added one at a time, in order, starting from 0.0."""
    if not len(values):
        return 0.0
    return float(np.add.accumulate(values)[-1])


def _group_folds(values: np.ndarray, groups: np.ndarray, count: int
                 ) -> List[Optional[float]]:
    """The :func:`left_fold` of each group's values (``None`` for an empty
    group); a stable sort keeps each group in stream order."""
    ordered = values[np.argsort(groups, kind="stable")]
    sums: List[Optional[float]] = []
    start = 0
    for end in np.cumsum(np.bincount(groups, minlength=count)).tolist():
        sums.append(left_fold(ordered[start:end]) if end > start else None)
        start = end
    return sums


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


def _replay_index(order: np.ndarray, bounds: List[int]) -> np.ndarray:
    """Indices that lay the distinct blocks' addends out in stream order.

    Distinct block ``b`` owns addends ``bounds[b]:bounds[b + 1]``; the
    stream is the blocks ``order`` names, one after another.
    """
    sizes = np.diff(bounds)[order]
    ends = np.cumsum(sizes)
    offsets = np.array(bounds[:-1], dtype=np.intp)[order] - (ends - sizes)
    return np.arange(ends[-1]) + np.repeat(offsets, sizes)


# What a backend's block pricer returns for one block: its instruction
# count, flops, fences, DRAM transfers and RoCC commands.
BlockTally = Tuple[int, int, int, int, int]


class Backend(abc.ABC):
    """Common interface for the scalar, vector, and systolic timing models."""

    name: str = "backend"
    instruction_type: type              # the ISA class the backend executes

    def run(self, stream: InstructionStream) -> CycleReport:
        """Time an instruction stream."""
        return self.price((tuple(self._records(stream)),))[0]

    def price(self, blocks: Iterable[tuple]
              ) -> Tuple[CycleReport, StreamCounters]:
        """Time blocks of instruction records in stream order.

        Each distinct block object is priced once.  The total, each
        kernel's cycles and each category's cycles are then left folds of
        the whole stream's addends in stream order, so a sum depends only on
        the records, not on how they were cut into blocks.  Kernels are
        listed in first-appearance order and categories in
        :attr:`CycleCategory.ALL` order, each once it is charged.
        """
        blocks = list(blocks)       # alive while their ids are keys
        slots: Dict[int, int] = {}
        sequence = [slots.setdefault(id(block), len(slots)) for block in blocks]
        distinct = list({id(block): block for block in blocks}.values())

        # Distinct blocks are priced in order of first appearance, so the
        # kernels are met in the order they first appear in the stream.
        addends: List[float] = []
        categories = bytearray()
        runs: List[Tuple[int, str]] = []
        price_block = self._block_pricer(addends, categories, runs)
        tallies = []
        bounds = [0]
        for block in distinct:
            tallies.append(price_block(block))
            bounds.append(len(addends))

        kernels: Dict[str, int] = {}
        run_codes = [kernels.setdefault(kernel, len(kernels))
                     for _, kernel in runs]
        run_starts = [start for start, _ in runs] + [len(addends)]
        values = np.array(addends, dtype=float)
        # Small code types let the stable sorts in _group_folds run as radix
        # sorts.
        category_codes = np.frombuffer(categories, dtype=np.uint8)
        kernel_codes = np.repeat(
            np.array(run_codes, dtype=np.min_scalar_type(len(kernels))),
            np.diff(run_starts))
        order = np.array(sequence, dtype=np.intp)
        if len(order) > len(distinct):
            index = _replay_index(order, bounds)
            values = values[index]
            category_codes = category_codes[index]
            kernel_codes = kernel_codes[index]

        by_category = _group_folds(values, category_codes,
                                   len(CycleCategory.ALL))
        uses = np.bincount(order, minlength=len(distinct))
        count, flops, fences, dram_transfers, rocc = (
            np.array(tallies, dtype=np.int64).reshape(-1, 5).T @ uses
        ).tolist()
        report = CycleReport(
            backend=self.name, total_cycles=left_fold(values),
            cycles_by_kernel=dict(zip(kernels, _group_folds(
                values, kernel_codes, len(kernels)))),
            cycles_by_category={
                category: cycles for category, cycles
                in zip(CycleCategory.ALL, by_category) if cycles is not None},
            instruction_count=count, flops=flops)
        return report, StreamCounters(
            instructions=count, fences=fences, dram_transfers=dram_transfers,
            rocc_instructions=rocc)

    @abc.abstractmethod
    def _block_pricer(self, addends: List[float], categories: bytearray,
                      runs: List[Tuple[int, str]]
                      ) -> Callable[[tuple], BlockTally]:
        """A function that prices one block of records and returns its
        :data:`BlockTally`.

        It appends each instruction's cost addends to ``addends`` in stream
        order, each addend's category (an index into
        :attr:`CycleCategory.ALL`) to ``categories``, and
        ``(len(addends), kernel)`` to ``runs`` at the block's first charged
        instruction and wherever the kernel changes.  An instruction that
        charges nothing adds no addend, and its kernel no run.  Memos of
        per-size costs live in the returned closure, so they last one
        :meth:`price` call.
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
