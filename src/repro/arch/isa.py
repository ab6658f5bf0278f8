"""Backend instruction abstractions.

The code-generation flow lowers a matlib program into one of three
instruction streams, which the architecture models cost:

* :class:`ScalarWork`      — a block of scalar computation (for CPUs),
* :class:`VectorInstruction`  — one RVV instruction (for Saturn),
* :class:`GemminiInstruction` — one RoCC command (for Gemmini).

These are deliberately coarser than real micro-ops: they carry exactly the
attributes the paper identifies as first-order for real-time control
workloads (element counts, LMUL grouping, sequential dependencies, whether
operands round-trip through memory, RoCC construction cost, fences).

The lowerings emit each instruction as a *record*: a plain tuple of the
class's fields in field order, so ``VectorInstruction(*record)`` builds the
object and a backend prices records and objects alike.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Union

__all__ = [
    "ScalarWork",
    "VectorOpcode",
    "VectorInstruction",
    "GemminiOpcode",
    "GemminiInstruction",
    "Instruction",
    "InstructionStream",
]


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarWork:
    """A block of scalar work attributed to one kernel.

    Attributes:
        kernel: TinyMPC kernel tag the work belongs to.
        flops: floating-point operations in the block.
        memory_bytes: bytes loaded + stored from/to the memory hierarchy.
        op_calls: matlib operator invocations folded into the block — each
            call carries function-call and address-generation overhead in
            library-style code, which Eigen-style / fused code avoids.
        loop_iterations: loop trips executed (branch + induction overhead);
            software unrolling reduces this.
        dependent_chain: length of the longest serial dependence chain in
            FLOPs; limits instruction-level parallelism on wide cores.
    """

    kernel: str
    flops: int
    memory_bytes: int
    op_calls: int = 1
    loop_iterations: int = 0
    dependent_chain: int = 0


# ---------------------------------------------------------------------------
# Vector (RVV / Saturn)
# ---------------------------------------------------------------------------

class VectorOpcode(enum.Enum):
    VSETVL = "vsetvl"          # vector-length configuration
    VARITH = "varith"          # elementwise arithmetic (vadd/vsub/vmin/vmax/...)
    VMACC = "vmacc"            # vfmacc.vf — scalar x column accumulate (GEMV body)
    VLOAD = "vload"            # unit-stride vector load
    VSTORE = "vstore"          # unit-stride vector store
    VREDUCE = "vreduce"        # vredmax / vfredmax reduction
    SCALAR = "scalar"          # scalar bookkeeping interleaved with vector code


@dataclass(frozen=True)
class VectorInstruction:
    """One RVV instruction as seen by the Saturn model."""

    kernel: str
    opcode: VectorOpcode
    elements: int                    # application elements processed
    element_bytes: int = 4           # fp32 by default
    lmul: int = 1                    # register-group multiplier
    sequential_dependency: bool = False   # depends on the immediately preceding result


# ---------------------------------------------------------------------------
# Gemmini (RoCC)
# ---------------------------------------------------------------------------

class GemminiOpcode(enum.Enum):
    CONFIG = "config"          # config_ex / config_ld / config_st
    MVIN = "mvin"              # DRAM/L2 -> scratchpad
    MVOUT = "mvout"            # scratchpad/accumulator -> DRAM/L2
    PRELOAD = "preload"        # load the mesh (weight-stationary) / set output tile
    COMPUTE = "compute"        # matmul.compute / matmul.preloaded
    FENCE = "fence"            # full CPU-accelerator fence
    CPU_OP = "cpu_op"          # work that falls back to the scalar CPU


@dataclass(frozen=True)
class GemminiInstruction:
    """One RoCC command issued to Gemmini (or a CPU fallback block)."""

    kernel: str
    opcode: GemminiOpcode
    rows: int = 0
    cols: int = 0
    inner: int = 0                  # reduction dimension for COMPUTE
    dram: bool = False              # MVIN/MVOUT touches DRAM (vs scratchpad-resident)
    cisc: bool = False              # issued through the CISC (looped) interface
    statically_mapped: bool = False  # addresses/indices pre-computed at compile time
    uses_activation: bool = False   # fused ReLU / scaling on the way out
    pool_factor: int = 1            # pooling reduction applied on MVOUT
    cpu_flops: int = 0              # only for CPU_OP fallbacks


Instruction = Union[ScalarWork, VectorInstruction, GemminiInstruction]


class InstructionStream:
    """An ordered backend instruction stream with kernel bookkeeping."""

    def __init__(self, instructions: Optional[Iterable[Instruction]] = None,
                 backend: str = "unknown", name: str = "stream") -> None:
        self.instructions: List[Instruction] = list(instructions) if instructions else []
        self.backend = backend
        self.name = name

    def append(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index):
        return self.instructions[index]

    def kernels(self) -> List[str]:
        seen = {}
        for instruction in self.instructions:
            if instruction.kernel not in seen:
                seen[instruction.kernel] = None
        return list(seen)

    def count_opcode(self, opcode) -> int:
        return sum(1 for i in self.instructions
                   if getattr(i, "opcode", None) == opcode)

    def __repr__(self) -> str:  # pragma: no cover
        return "InstructionStream(backend={!r}, n={})".format(self.backend, len(self))
