"""Saturn vector-unit timing model.

Saturn is a short-vector RVV 1.0 implementation driven by a scalar frontend
(Rocket or Shuttle).  The model captures the effects the paper's
characterization identifies as first-order for control workloads:

* **datapath occupancy** — a vector instruction occupies the datapath for
  ``ceil(elements * sew / DLEN)`` cycles;
* **register grouping (LMUL)** — grouping lets one instruction cover more
  elements (fewer instructions to issue, good for long elementwise
  kernels), but the sequencer occupies the datapath for the whole register
  group, which wastes cycles when TinyMPC's tiny vectors (4 and 12
  elements) leave groups mostly empty (Figure 4);
* **frontend coupling** — every vector instruction (and its scalar
  address/bookkeeping companions) must be issued by the scalar frontend, so
  a single-issue Rocket starves the vector unit that a dual-issue Shuttle
  can feed (Figure 11);
* **dependence chains** — serial GEMV accumulation chains expose the vector
  pipeline latency because back-to-back dependent instructions cannot
  chain.

All of it is priced in one loop over instruction records,
:meth:`SaturnModel.price`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from .backend import (Backend, CycleCategory, CycleReport, StreamCounters,
                      category_sums)
from .isa import VectorInstruction, VectorOpcode
from .memory import MemoryModel
from .scalar import ROCKET, SHUTTLE, ScalarCoreConfig

__all__ = ["SaturnConfig", "SaturnModel"]


@dataclass(frozen=True)
class SaturnConfig:
    """Parameters of a Saturn vector unit and its scalar frontend."""

    name: str
    vlen: int = 512                      # bits per vector register
    dlen: int = 256                      # datapath bits processed per cycle
    frontend: ScalarCoreConfig = ROCKET
    vector_pipeline_latency: float = 5.0  # cycles before a result can be consumed
    memory_port_bytes: int = 32           # VLSU bytes per cycle
    vsetvl_cycles: float = 1.0
    area_mm2: float = 2.4

    @property
    def lanes_fp32(self) -> int:
        """Number of fp32 elements processed per cycle."""
        return self.dlen // 32

    @property
    def peak_flops_per_cycle(self) -> float:
        return 2.0 * self.lanes_fp32

    def with_frontend(self, frontend: ScalarCoreConfig, name: Optional[str] = None
                      ) -> "SaturnConfig":
        return replace(self, frontend=frontend,
                       name=name or "{}+{}".format(self.name, frontend.name))


class SaturnModel(Backend):
    """Analytical timing model for the Saturn vector unit."""

    instruction_type = VectorInstruction

    def __init__(self, config: SaturnConfig,
                 memory: Optional[MemoryModel] = None) -> None:
        self.config = config
        self.memory = memory or MemoryModel()
        self.name = config.name

    # -- Backend interface -------------------------------------------------------
    @property
    def peak_flops_per_cycle(self) -> float:
        return self.config.peak_flops_per_cycle

    def price(self, records):
        config = self.config
        VARITH, VMACC = VectorOpcode.VARITH, VectorOpcode.VMACC
        VLOAD, VSTORE = VectorOpcode.VLOAD, VectorOpcode.VSTORE
        SCALAR, VSETVL = VectorOpcode.SCALAR, VectorOpcode.VSETVL
        VREDUCE = VectorOpcode.VREDUCE
        # A dual-issue Shuttle frontend issues a vector instruction and one
        # scalar companion in the same cycle; a single-issue Rocket
        # serializes them.
        decode = max(config.frontend.decode_width, 1)
        issue = 1.0 / decode
        lanes = max(config.lanes_fp32, 1)
        # Costs that depend only on the operand size (and LMUL), computed
        # once per size.
        arith_costs: Dict[int, Dict[int, Tuple[int, float]]] = {}
        arith_lmul = arith_cost = None
        memory_costs: Dict[int, float] = {}

        total = kernel_sum = compute = memory = issued = stall = 0.0
        computed = moved = stalled = False
        by_kernel: Dict[str, float] = {}
        current = None
        count = flops = 0
        for kernel, opcode, elements, element_bytes, lmul, sequential in records:
            count += 1
            if kernel != current:
                if current is not None:
                    by_kernel[current] = kernel_sum
                current = kernel
                kernel_sum = by_kernel.get(kernel, 0.0)

            if opcode is VLOAD or opcode is VSTORE:
                total += issue; kernel_sum += issue; issued += issue
                num_bytes = elements * element_bytes
                try:
                    cycles = memory_costs[num_bytes]
                except KeyError:
                    cycles = memory_costs[num_bytes] = self._memory_cost(num_bytes)
                total += cycles; kernel_sum += cycles; memory += cycles
                moved = True
            elif opcode is VMACC or opcode is VARITH:
                total += issue; kernel_sum += issue; issued += issue
                if lmul != arith_lmul:
                    arith_lmul = lmul
                    arith_cost = arith_costs.setdefault(lmul, {})
                num_bytes = elements * element_bytes
                try:
                    occupancy, exposed = arith_cost[num_bytes]
                except KeyError:
                    occupancy, exposed = arith_cost[num_bytes] = self._arith_cost(
                        num_bytes, lmul)
                total += occupancy; kernel_sum += occupancy; compute += occupancy
                computed = True
                if sequential:
                    # Back-to-back dependent vector instructions cannot chain;
                    # the consumer waits for the producer to clear the pipeline.
                    total += exposed; kernel_sum += exposed; stall += exposed
                    stalled = True
                flops += 2 * elements if opcode is VMACC else elements
            elif opcode is SCALAR:
                # Scalar bookkeeping executed on the frontend (address
                # generation, scalar operands for vfmacc.vf, loop control).
                cycles = elements / decode
                total += cycles; kernel_sum += cycles; issued += cycles
            elif opcode is VSETVL:
                cycles = config.vsetvl_cycles
                total += cycles; kernel_sum += cycles; issued += cycles
            elif opcode is VREDUCE:
                total += issue; kernel_sum += issue; issued += issue
                tree_steps = math.ceil(math.log2(max(elements, 2)))
                cycles = math.ceil(elements / lanes) + tree_steps
                total += cycles; kernel_sum += cycles; compute += cycles
                computed = True
                flops += elements
            else:
                raise ValueError("unhandled vector opcode: {}".format(opcode))

        if current is not None:
            by_kernel[current] = kernel_sum
        report = CycleReport(
            backend=self.name, total_cycles=total, cycles_by_kernel=by_kernel,
            cycles_by_category=category_sums(
                (CycleCategory.COMPUTE, compute, computed),
                (CycleCategory.MEMORY, memory, moved),
                (CycleCategory.ISSUE, issued, count > 0),
                (CycleCategory.STALL, stall, stalled)),
            instruction_count=count, flops=flops)
        return report, StreamCounters(instructions=count)

    def _memory_cost(self, num_bytes: int) -> float:
        """Memory cycles of a VLOAD/VSTORE."""
        # The VLSU overlaps with the arithmetic pipeline via chaining, so
        # only a fraction of the transfer time is exposed.
        cycles = max(0.55 * math.ceil(num_bytes / self.config.memory_port_bytes), 1.0)
        return cycles + 0.25

    def _arith_cost(self, num_bytes: int, lmul: int) -> Tuple[int, float]:
        """Datapath occupancy of a VARITH/VMACC and its exposed stall when
        it depends on the preceding instruction."""
        config = self.config
        useful_bits = num_bytes * 8
        # The sequencer walks the whole register group: with LMUL > 1 the
        # instruction occupies ceil(LMUL * VLEN / DLEN) cycles even if only a
        # few elements are valid, which is the Figure 4 penalty for tiny
        # vectors.  With LMUL = 1 only the valid elements are processed.
        if lmul > 1:
            group_bits = lmul * config.vlen
            occupied_bits = min(group_bits, max(useful_bits, config.dlen))
            occupied_bits = max(occupied_bits, lmul * config.dlen)
        else:
            occupied_bits = useful_bits
        occupancy = max(math.ceil(occupied_bits / config.dlen), 1)
        return occupancy, max(config.vector_pipeline_latency - occupancy, 0.0)
