"""Scalar RISC-V core timing models (Rocket, Shuttle, BOOM variants).

The model costs :class:`~repro.arch.isa.ScalarWork` blocks
(:meth:`ScalarCoreModel._block_pricer`, which :meth:`Backend.price
<repro.arch.backend.Backend.price>` calls once per distinct block).  A
block's cycles come from four sources the paper's characterization
distinguishes:

* **compute** — floating-point work, limited by the number of FP units, the
  issue width, and (critically for the serial GEMV chains of TinyMPC) the
  block's dependence-chain length;
* **memory** — streaming loads/stores through the L1;
* **overhead** — per-matlib-call overhead (function call, dynamic shape
  handling, address generation) that library-style code pays and
  Eigen-style / unrolled code mostly avoids;
* **issue/loop** — loop and branch bookkeeping, reduced by unrolling and by
  wider front-ends.

The same microarchitectural knobs (fetch/decode/issue widths, FP units,
re-order capability, per-pipeline instruction queues) differentiate Rocket,
Shuttle, and the BOOM family in Section 5.1.1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .backend import Backend, CycleCategory
from .isa import ScalarWork
from .memory import MemoryModel

__all__ = ["ScalarCoreConfig", "ScalarCoreModel",
           "ROCKET", "SHUTTLE", "SMALL_BOOM", "MEDIUM_BOOM", "LARGE_BOOM", "MEGA_BOOM"]


@dataclass(frozen=True)
class ScalarCoreConfig:
    """Microarchitectural parameters of a scalar core."""

    name: str
    fetch_width: int = 1
    decode_width: int = 1
    issue_width: int = 1
    fp_units: int = 1
    mem_ports: int = 1
    out_of_order: bool = False
    rob_entries: int = 0
    # Instruction-queue generosity (0-1): how well the core keeps its FP
    # pipeline fed for dependent code.  Dedicated per-pipeline IQs raise it.
    scheduling_efficiency: float = 0.55
    fp_latency: float = 4.0              # FMA latency in cycles
    branch_penalty: float = 3.0
    call_overhead: float = 18.0          # cycles per (non-inlined) function call
    area_mm2: float = 0.25               # ASAP7-inspired post-synthesis area

    @property
    def peak_flops_per_cycle(self) -> float:
        # Fused multiply-add counts as two FLOPs.
        return 2.0 * self.fp_units

    def scaled_clone(self, **overrides) -> "ScalarCoreConfig":
        return replace(self, **overrides)


class ScalarCoreModel(Backend):
    """Analytical timing model of a scalar core executing ScalarWork blocks."""

    instruction_type = ScalarWork

    def __init__(self, config: ScalarCoreConfig,
                 memory: Optional[MemoryModel] = None) -> None:
        self.config = config
        self.memory = memory or MemoryModel()
        self.name = config.name

    # -- Backend interface ------------------------------------------------------
    @property
    def peak_flops_per_cycle(self) -> float:
        return self.config.peak_flops_per_cycle

    def _block_pricer(self, addends, categories, runs):
        config = self.config
        l1_access_cycles = self.memory.l1_access_cycles
        mem_ports = max(config.mem_ports, 1)
        decode = max(config.decode_width, 1)
        # Dependence chains additionally expose FP latency on in-order cores;
        # out-of-order cores hide most of it by running ahead.
        latency_exposure = 0.15 if config.out_of_order else 0.6
        # OoO cores overlap a large fraction of memory latency with compute.
        overlap = 0.5 if config.out_of_order else 0.2
        per_iteration = 2.0 / max(config.fetch_width, 1) + 0.25 * config.branch_penalty
        # Category codes: indices into CycleCategory.ALL.
        COMPUTE, MEMORY, ISSUE, _, OVERHEAD = range(len(CycleCategory.ALL))

        add, charge, start_run = addends.append, categories.append, runs.append

        def price_block(records):
            current = None
            count = flops = 0
            for kernel, work_flops, memory_bytes, op_calls, loop_iterations, \
                    dependent_chain in records:
                count += 1
                flops += work_flops
                if (work_flops <= 0 and memory_bytes <= 0 and op_calls <= 0
                        and loop_iterations <= 0):
                    continue   # charges nothing: its kernel gets no entry
                if kernel != current:
                    start_run((len(addends), kernel))
                    current = kernel

                # Compute: ideal throughput limited by exposed parallelism.
                if work_flops > 0:
                    chain = max(dependent_chain, 1)
                    # How many independent FLOPs are available at a time.
                    available_parallelism = max(work_flops / chain, 1.0)
                    usable_units = min(config.fp_units, available_parallelism)
                    throughput = usable_units * 2.0 * config.scheduling_efficiency
                    cycles = work_flops / max(throughput, 1e-9)
                    cycles += latency_exposure * config.fp_latency * (chain - 1) / 2.0
                    add(cycles); charge(COMPUTE)

                # Memory: streaming through the L1, overlapped on cores with
                # more ports.
                if memory_bytes > 0:
                    cycles = l1_access_cycles(memory_bytes)
                    cycles /= mem_ports
                    cycles = cycles * (1.0 - overlap)
                    add(cycles); charge(MEMORY)

                # Library-call overhead.
                if op_calls > 0:
                    add(op_calls * config.call_overhead / decode)
                    charge(OVERHEAD)

                # Loop/branch bookkeeping.
                if loop_iterations > 0:
                    add(loop_iterations * per_iteration); charge(ISSUE)
            return count, flops, 0, 0, 0

        return price_block


# ---------------------------------------------------------------------------
# Named configurations (Section 5.1.1)
# ---------------------------------------------------------------------------

ROCKET = ScalarCoreConfig(
    name="Rocket",
    fetch_width=1, decode_width=1, issue_width=1, fp_units=1, mem_ports=1,
    out_of_order=False, scheduling_efficiency=0.50, area_mm2=0.27)

SHUTTLE = ScalarCoreConfig(
    name="Shuttle",
    fetch_width=2, decode_width=2, issue_width=2, fp_units=1, mem_ports=1,
    out_of_order=False, scheduling_efficiency=0.58, area_mm2=0.45)

SMALL_BOOM = ScalarCoreConfig(
    name="SmallBOOM",
    fetch_width=4, decode_width=1, issue_width=3, fp_units=1, mem_ports=1,
    out_of_order=True, rob_entries=32, scheduling_efficiency=0.62,
    area_mm2=1.3)

MEDIUM_BOOM = ScalarCoreConfig(
    name="MediumBOOM",
    fetch_width=4, decode_width=2, issue_width=4, fp_units=1, mem_ports=1,
    out_of_order=True, rob_entries=64, scheduling_efficiency=0.66,
    area_mm2=1.8)

LARGE_BOOM = ScalarCoreConfig(
    name="LargeBOOM",
    fetch_width=4, decode_width=1, issue_width=5, fp_units=1, mem_ports=2,
    out_of_order=True, rob_entries=96, scheduling_efficiency=0.68,
    area_mm2=2.3)

MEGA_BOOM = ScalarCoreConfig(
    name="MegaBOOM",
    fetch_width=8, decode_width=4, issue_width=8, fp_units=2, mem_ports=2,
    out_of_order=True, rob_entries=128, scheduling_efficiency=0.55,
    area_mm2=3.0)
