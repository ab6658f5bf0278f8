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

All of it is priced per block of instruction records by
:meth:`SaturnModel._block_pricer`, which :meth:`Backend.price
<repro.arch.backend.Backend.price>` calls once per distinct block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from .backend import Backend, CycleCategory
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

    def _block_pricer(self, addends, categories, runs):
        config = self.config
        VARITH, VMACC = VectorOpcode.VARITH, VectorOpcode.VMACC
        VLOAD, VSTORE = VectorOpcode.VLOAD, VectorOpcode.VSTORE
        SCALAR, VSETVL = VectorOpcode.SCALAR, VectorOpcode.VSETVL
        VREDUCE = VectorOpcode.VREDUCE
        # Category codes: indices into CycleCategory.ALL.
        COMPUTE, MEMORY, ISSUE, STALL, _ = range(len(CycleCategory.ALL))
        # A dual-issue Shuttle frontend issues a vector instruction and one
        # scalar companion in the same cycle; a single-issue Rocket
        # serializes them.
        decode = max(config.frontend.decode_width, 1)
        issue = 1.0 / decode
        lanes = max(config.lanes_fp32, 1)
        vsetvl = config.vsetvl_cycles
        # Costs that depend only on the operand size (and LMUL), computed
        # once per size.
        arith_costs: Dict[int, Dict[int, Tuple[int, float]]] = {}
        memory_costs: Dict[int, float] = {}

        add, charge, start_run = addends.append, categories.append, runs.append

        def price_block(records):
            current = arith_lmul = arith_cost = None
            count = flops = 0
            for kernel, opcode, elements, element_bytes, lmul, sequential \
                    in records:
                count += 1
                if kernel != current:
                    start_run((len(addends), kernel))
                    current = kernel

                if opcode is VLOAD or opcode is VSTORE:
                    add(issue); charge(ISSUE)
                    num_bytes = elements * element_bytes
                    try:
                        cycles = memory_costs[num_bytes]
                    except KeyError:
                        cycles = memory_costs[num_bytes] = self._memory_cost(
                            num_bytes)
                    add(cycles); charge(MEMORY)
                elif opcode is VMACC or opcode is VARITH:
                    add(issue); charge(ISSUE)
                    if lmul != arith_lmul:
                        arith_lmul = lmul
                        arith_cost = arith_costs.setdefault(lmul, {})
                    num_bytes = elements * element_bytes
                    try:
                        occupancy, exposed = arith_cost[num_bytes]
                    except KeyError:
                        occupancy, exposed = arith_cost[num_bytes] = \
                            self._arith_cost(num_bytes, lmul)
                    add(occupancy); charge(COMPUTE)
                    if sequential:
                        # Back-to-back dependent vector instructions cannot
                        # chain; the consumer waits for the producer to
                        # clear the pipeline.
                        add(exposed); charge(STALL)
                    flops += 2 * elements if opcode is VMACC else elements
                elif opcode is SCALAR:
                    # Scalar bookkeeping executed on the frontend (address
                    # generation, scalar operands for vfmacc.vf, loop
                    # control).
                    add(elements / decode); charge(ISSUE)
                elif opcode is VSETVL:
                    add(vsetvl); charge(ISSUE)
                elif opcode is VREDUCE:
                    add(issue); charge(ISSUE)
                    tree_steps = math.ceil(math.log2(max(elements, 2)))
                    add(math.ceil(elements / lanes) + tree_steps)
                    charge(COMPUTE)
                    flops += elements
                else:
                    raise ValueError("unhandled vector opcode: {}".format(opcode))
            return count, flops, 0, 0, 0

        return price_block

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
