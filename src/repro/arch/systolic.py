"""Gemmini systolic-array timing model.

Gemmini is a decoupled accelerator driven over the RoCC interface by a
scalar host core.  The model captures the costs the paper's optimization
study manipulates (Section 4.2):

* **RoCC construction cost** — the host spends cycles bit-shifting operands
  into RoCC instruction arguments; static mapping (compile-time addresses)
  shrinks this cost, and CISC instructions need several configuration
  commands before execution can start;
* **data staging** — mvin/mvout through DRAM is expensive; keeping the
  solver workspace scratchpad-resident avoids the round trips;
* **fences** — Gemmini's ROB does not track RAW hazards across memory
  operations, so explicit fences are required and stall the host for
  hundreds of cycles (the paper observed up to ~600);
* **mesh execution** — an output-stationary dataflow accumulates in the PEs
  and eliminates the separate accumulator memory; small control-sized tiles
  underutilize the mesh;
* **activation/pooling engines** — ReLU implements abs/clip, max-pooling on
  mvout shrinks the reduction the host must finish (Section 4.2.6).

All of it is priced per block of instruction records by
:meth:`GemminiModel._block_pricer`, which :meth:`Backend.price
<repro.arch.backend.Backend.price>` calls once per distinct block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .backend import Backend, CycleCategory
from .isa import GemminiInstruction, GemminiOpcode
from .memory import MemoryModel
from .scalar import ROCKET, ScalarCoreConfig

__all__ = ["GemminiConfig", "GemminiModel"]


@dataclass(frozen=True)
class GemminiConfig:
    """Parameters of a Gemmini instance and its host core."""

    name: str
    mesh_rows: int = 4
    mesh_cols: int = 4
    dataflow: str = "OS"                # "OS" (output-stationary) or "WS"
    scratchpad_kb: int = 64
    accumulator_kb: int = 0             # OS designs need no accumulator memory
    host: ScalarCoreConfig = ROCKET
    has_activation_engine: bool = True  # ReLU / scaling on the output path
    has_pooling_engine: bool = True
    rocc_construction_cycles: float = 22.0   # dynamic argument construction (bit shifting)
    rocc_static_cycles: float = 3.0          # with compile-time static mapping
    rocc_issue_cycles: float = 1.0
    cisc_expansion_cycles: float = 4.0       # per CISC command sequencing overhead
    fence_stall_cycles: float = 200.0
    mesh_pipeline_latency: float = 5.0
    host_cycles_per_flop: float = 2.2        # fallback scalar work on the host
    area_mm2: float = 1.9

    def __post_init__(self) -> None:
        if self.dataflow not in ("OS", "WS"):
            raise ValueError("dataflow must be 'OS' or 'WS'")

    @property
    def pe_count(self) -> int:
        return self.mesh_rows * self.mesh_cols

    @property
    def peak_flops_per_cycle(self) -> float:
        return 2.0 * self.pe_count


class GemminiModel(Backend):
    """Analytical timing model for Gemmini driven over RoCC."""

    instruction_type = GemminiInstruction

    def __init__(self, config: GemminiConfig,
                 memory: Optional[MemoryModel] = None) -> None:
        self.config = config
        self.memory = memory or MemoryModel()
        self.name = config.name

    # -- Backend interface ----------------------------------------------------------
    @property
    def peak_flops_per_cycle(self) -> float:
        return self.config.peak_flops_per_cycle

    def _block_pricer(self, addends, categories, runs):
        config = self.config
        dram_access_cycles = self.memory.dram_access_cycles
        scratchpad_access_cycles = self.memory.scratchpad_access_cycles
        CONFIG, MVIN, MVOUT = GemminiOpcode.CONFIG, GemminiOpcode.MVIN, GemminiOpcode.MVOUT
        PRELOAD, COMPUTE = GemminiOpcode.PRELOAD, GemminiOpcode.COMPUTE
        FENCE, CPU_OP = GemminiOpcode.FENCE, GemminiOpcode.CPU_OP
        # Category codes: indices into CycleCategory.ALL.
        ON_COMPUTE, ON_MEMORY, ON_ISSUE, ON_STALL, ON_OVERHEAD = range(
            len(CycleCategory.ALL))
        decode = max(config.host.decode_width, 1)
        # Host cycles to construct and issue one RoCC command: static mapping
        # (compile-time addresses) shrinks the argument construction.
        issue_static = config.rocc_static_cycles / decode + config.rocc_issue_cycles
        issue_dynamic = config.rocc_construction_cycles / decode + config.rocc_issue_cycles

        add, charge, start_run = addends.append, categories.append, runs.append

        def price_block(records):
            current = None
            count = flops = rocc = fences = dram_transfers = 0
            for (kernel, opcode, rows, cols, inner, dram, cisc,
                 statically_mapped, uses_activation, pool_factor,
                 cpu_flops) in records:
                count += 1
                if kernel != current:
                    start_run((len(addends), kernel))
                    current = kernel

                if opcode is CPU_OP:
                    cycles = cpu_flops * config.host_cycles_per_flop
                    cycles /= decode
                    add(cycles); charge(ON_OVERHEAD)
                    flops += cpu_flops
                    continue

                rocc += 1
                if opcode is FENCE:
                    add(config.fence_stall_cycles); charge(ON_STALL)
                    fences += 1
                    continue

                # Every RoCC command pays the host construction/issue cost.
                cycles = issue_static if statically_mapped else issue_dynamic
                if cisc:
                    cycles += config.cisc_expansion_cycles
                add(cycles); charge(ON_ISSUE)

                if opcode is CONFIG:
                    # Configuration is pure host-side work already charged
                    # above.
                    continue

                if opcode is MVIN or opcode is MVOUT:
                    num_bytes = rows * max(cols, 1) * 4
                    if dram:
                        cycles = dram_access_cycles(num_bytes)
                        dram_transfers += 1
                    else:
                        cycles = scratchpad_access_cycles(num_bytes)
                        # Vectors stored down a single scratchpad column load
                        # one element per cycle (Section 4.2.4).
                        if cols == 1:
                            cycles = max(cycles, float(rows))
                    if pool_factor > 1:
                        cycles += 1.0   # pooling adds a pipeline stage on the way out
                    add(cycles); charge(ON_MEMORY)
                elif opcode is PRELOAD:
                    add(float(config.mesh_rows)); charge(ON_MEMORY)
                elif opcode is COMPUTE:
                    flops += 2 * rows * cols * max(inner, 1)
                    rows = max(rows, 1)
                    cols = max(cols, 1)
                    inner = max(inner, 1)
                    # The mesh processes a (mesh_rows x mesh_cols) tile per
                    # pass; the pass takes `inner` beats plus pipeline
                    # fill/drain.
                    row_tiles = math.ceil(rows / config.mesh_rows)
                    col_tiles = math.ceil(cols / config.mesh_cols)
                    per_tile = inner + config.mesh_pipeline_latency
                    if config.dataflow == "WS":
                        # Weight-stationary designs re-load weights per tile
                        # and drain partial sums through the accumulator.
                        per_tile += config.mesh_rows + 2.0
                    cycles = row_tiles * col_tiles * per_tile
                    if uses_activation and not config.has_activation_engine:
                        # Without the engine the activation falls back to the
                        # host.
                        cycles += rows * cols * config.host_cycles_per_flop
                    add(cycles); charge(ON_COMPUTE)
                else:
                    raise ValueError("unhandled Gemmini opcode: {}".format(opcode))
            return count, flops, fences, dram_transfers, rocc

        return price_block
