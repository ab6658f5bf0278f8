"""Lowering matlib programs to Gemmini RoCC command streams.

The lowering exposes every optimization of Section 4.2 as a knob so the
benchmarks can reproduce the paper's ablations:

* ``static_mapping``          — compile-time address/index computation
                                 (Section 4.2.1);
* ``eliminate_redundant_config`` — reuse accelerator configuration across
                                 same-shaped operations (Section 4.2.2);
* ``use_cisc``                — drive Gemmini through its CISC interface
                                 instead of fine-grained commands
                                 (Section 4.2.3; poor fit for small tiles);
* ``scratchpad_resident``     — pin the solver workspace in the scratchpad
                                 and keep intermediate results there
                                 (Section 4.2.4);
* ``use_activation_engine``   — ReLU-based abs/clip so elementwise work can
                                 run on the mesh (Section 4.2.6);
* ``use_pooling``             — max-pooling on mvout to shrink the residual
                                 reductions left for the CPU (Section 4.2.6);
* ``sync_granularity``        — how much work is offloaded between CPU
                                 synchronization points (Figure 9).

:func:`gemmini_blocks` is the lowering: it yields one block (a tuple of
plain records) per op, which :func:`lower_gemmini` materializes and the
cycle model prices directly.  An op's block is a pure function of its
signature (:meth:`~repro.matlib.MatlibProgram.op_signatures`), the options
and three bits of state the lowering tracks across ops: which inputs still
need an ``mvin``, whether the last configuration already matches, and
whether the fence counter fires.  Ops that agree on all of them share one
block object.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, starmap
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..arch.isa import GemminiInstruction, GemminiOpcode, InstructionStream
from ..matlib import MatlibProgram, OpKind, OpRecord
from .passes import plan_scratchpad_residency

__all__ = ["GemminiLoweringOptions", "gemmini_plan", "gemmini_blocks",
           "lower_gemmini"]


@dataclass(frozen=True)
class GemminiLoweringOptions:
    """Knobs for Gemmini lowering."""

    mesh_dim: int = 4
    static_mapping: bool = False
    eliminate_redundant_config: bool = False
    use_cisc: bool = False
    scratchpad_resident: bool = False
    use_activation_engine: bool = False
    use_pooling: bool = False
    pool_factor: int = 4
    # Number of matlib operators offloaded between CPU synchronization
    # points; larger granularity means fewer fences (Figure 9).
    sync_granularity: int = 1
    scratchpad_kb: int = 64

    def __post_init__(self) -> None:
        if self.mesh_dim < 1:
            raise ValueError("mesh_dim must be positive")
        if self.sync_granularity < 1:
            raise ValueError("sync_granularity must be >= 1")

    # -- canned configurations -------------------------------------------------
    @classmethod
    def library(cls) -> "GemminiLoweringOptions":
        """Out-of-box mapping: dynamic addressing, DRAM staging, per-op fences."""
        return cls()

    @classmethod
    def cisc(cls) -> "GemminiLoweringOptions":
        """CISC-instruction mapping typical of DNN deployments."""
        return cls(use_cisc=True)

    @classmethod
    def unrolled_static(cls) -> "GemminiLoweringOptions":
        """Software unrolling plus compile-time static mapping (Fig. 6)."""
        return cls(static_mapping=True, eliminate_redundant_config=True)

    @classmethod
    def scratchpad(cls) -> "GemminiLoweringOptions":
        """Static mapping plus scratchpad-resident intermediates (Fig. 7)."""
        return cls(static_mapping=True, eliminate_redundant_config=True,
                   scratchpad_resident=True, sync_granularity=8)

    @classmethod
    def optimized(cls) -> "GemminiLoweringOptions":
        """The paper's full optimization stack (Fig. 12 'pool' bars)."""
        return cls(static_mapping=True, eliminate_redundant_config=True,
                   scratchpad_resident=True, use_activation_engine=True,
                   use_pooling=True, sync_granularity=32)

    @classmethod
    def elementwise_engines(cls) -> "GemminiLoweringOptions":
        """Scaling/activation engines but no pooling (Fig. 12 'elementwise')."""
        return cls(static_mapping=True, eliminate_redundant_config=True,
                   scratchpad_resident=True, use_activation_engine=True,
                   sync_granularity=24)


def _gemmini_block(op: OpRecord, options: GemminiLoweringOptions,
                   staged: int, configured: bool, fence: bool) -> tuple:
    """One op's RoCC commands.

    Bit ``i`` of ``staged`` is set when the op's ``i``-th scratchpad operand
    needs an ``mvin``; ``configured`` elides the configuration; ``fence``
    places the op's synchronization fence.
    """
    # Enum members read as locals: attribute access on an Enum class is slow.
    CONFIG, MVIN, MVOUT = GemminiOpcode.CONFIG, GemminiOpcode.MVIN, GemminiOpcode.MVOUT
    PRELOAD, COMPUTE = GemminiOpcode.PRELOAD, GemminiOpcode.COMPUTE
    FENCE, CPU_OP = GemminiOpcode.FENCE, GemminiOpcode.CPU_OP
    kernel = op.kernel or "<untagged>"
    static = options.static_mapping
    # With DRAM staging every transfer goes to DRAM; scratchpad-resident
    # operands and results avoid the trip.
    staging = not options.scratchpad_resident

    def command(opcode: GemminiOpcode, rows: int = 0, cols: int = 0,
                inner: int = 0, dram: bool = False, cisc: bool = False,
                uses_activation: bool = False, pool_factor: int = 1,
                cpu_flops: int = 0) -> tuple:
        return (kernel, opcode, rows, cols, inner, dram, cisc, static,
                uses_activation, pool_factor, cpu_flops)

    def stage_inputs(cisc: bool) -> List[tuple]:
        """mvin the operands; CISC instructions require them in memory."""
        commands, bit = [], 1
        for name, shape in zip(op.inputs, op.shapes):
            if shape and not name.startswith("<"):
                if cisc or staged & bit:
                    commands.append(command(
                        MVIN, rows=shape[0],
                        cols=shape[1] if len(shape) > 1 else 1,
                        dram=cisc or staging, cisc=cisc))
                bit <<= 1
        return commands

    def retire_output(uses_activation: bool = False) -> List[tuple]:
        """mvout the result, then the op's synchronization point."""
        rows = op.out_shape[0] if op.out_shape else 1
        cols = op.out_shape[1] if len(op.out_shape) > 1 else 1
        return [command(MVOUT, rows=rows, cols=cols, dram=staging,
                        uses_activation=uses_activation)] + synced

    synced = [command(FENCE)] if fence else []
    kind = op.kind
    if kind is OpKind.GEMV or kind is OpKind.GEMM:
        if op.name == "gemv_t":
            rows, inner = op.shapes[0][1], op.shapes[0][0]
            cols = 1
        elif kind is OpKind.GEMM:
            rows, inner = op.shapes[0]
            cols = op.out_shape[1] if len(op.out_shape) > 1 else 1
        else:
            rows, inner = op.shapes[0]
            cols = 1
        records = [] if configured else [command(CONFIG)] * (
            3 if options.use_cisc else 1)
        records += stage_inputs(options.use_cisc)
        records.append(command(PRELOAD, rows=min(rows, options.mesh_dim),
                               cols=min(cols, options.mesh_dim)))
        records.append(command(COMPUTE, rows=rows, cols=cols, inner=inner,
                               cisc=options.use_cisc))
        records += retire_output()
    elif kind is OpKind.ELEMENTWISE:
        elements = max(op.output_elements, 1)
        if not options.use_activation_engine:
            # Fall back to the CPU: the data must be synchronized out first.
            records = [command(MVOUT, rows=elements, cols=1)] if not staging else []
            records += synced
            records.append(command(CPU_OP, cpu_flops=max(op.flops, elements)))
            return tuple(records)
        # Elementwise work on the mesh: multiply by a resident identity (or
        # scaled identity) with a fused ReLU; abs and clip need two passes.
        passes = 2 if op.name in ("abs", "clip", "axpy", "sub_scaled") else 1
        rows = max(-(-elements // options.mesh_dim), 1)
        records = [] if configured else [command(CONFIG)]
        records += stage_inputs(False)
        records += [command(COMPUTE, rows=rows, cols=options.mesh_dim, inner=1,
                            uses_activation=True)] * passes
        records += retire_output(uses_activation=True)
    elif kind is OpKind.REDUCTION:
        elements = (max(max((max(s) if s else 1) for s in op.shapes), 1)
                    if op.shapes else 1)
        # Pooled residual reductions are batched: results accumulate in a
        # pooled output region and the CPU synchronizes once per residual
        # kernel rather than per knot point (the fence comes from the
        # regular sync-granularity policy); the CPU finishes what is left.
        pool_factor = options.pool_factor if options.use_pooling else 1
        records = [command(MVOUT, rows=elements, cols=1, dram=staging,
                           pool_factor=pool_factor)]
        records += synced
        records.append(command(
            CPU_OP, cpu_flops=2 * max(elements // pool_factor, 1)))
    elif kind is OpKind.DATA_MOVEMENT:
        records = [command(MVIN, rows=max(op.output_elements, 1), cols=1,
                           dram=staging)]
    else:
        records = [command(CPU_OP, cpu_flops=max(op.flops, 1))]
    return tuple(records)


# A program's Gemmini plan: per op ``(signature, op, configuration id,
# names of the operands a mesh op stages)``.
GemminiPlan = Tuple[Tuple[int, OpRecord, int, Tuple[str, ...]], ...]


def gemmini_plan(program: MatlibProgram) -> GemminiPlan:
    """Each op's signature, configuration and operands, for
    :func:`gemmini_blocks`; these depend only on the program."""
    configs: Dict[Tuple, int] = {}
    plan = []
    for op, signature in zip(program.ops, program.op_signatures()):
        if op.kind in (OpKind.GEMV, OpKind.GEMM):
            config = (op.shapes, op.out_shape)
        elif op.kind is OpKind.ELEMENTWISE:
            config = ("elementwise", max(op.output_elements, 1))
        else:
            config = None
        operands = tuple(name for name, shape in zip(op.inputs, op.shapes)
                         if shape and not name.startswith("<"))
        plan.append((signature, op, configs.setdefault(config, len(configs)),
                     operands))
    return tuple(plan)


def gemmini_blocks(plan: GemminiPlan, options: GemminiLoweringOptions,
                   resident: Iterable[str]) -> Iterator[tuple]:
    """The Gemmini lowering: one block of ``GemminiInstruction`` records per
    op.

    ``plan`` is the program's :func:`gemmini_plan` and ``resident`` names
    the buffers the scratchpad plan pins
    (``plan_scratchpad_residency(...).resident_buffers``); callers pass them
    in so a sweep can plan once per (program, scratchpad size).  The blocks
    are memoized for this lowering only.
    """
    GEMV, GEMM = OpKind.GEMV, OpKind.GEMM
    ELEMENTWISE, REDUCTION = OpKind.ELEMENTWISE, OpKind.REDUCTION
    resident_mode = options.scratchpad_resident
    in_scratchpad: Set[str] = set(resident) if resident_mode else set()
    blocks: Dict[Tuple[int, int, bool, bool], tuple] = {}
    last_config: Optional[int] = None
    ops_since_sync = 0
    for signature, op, config, operands in plan:
        kind = op.kind
        matrix = kind is GEMV or kind is GEMM
        # Ops on the mesh configure it, stage their operands and retire
        # their result; the rest run on the CPU or only move data.
        on_mesh = matrix or (kind is ELEMENTWISE
                             and options.use_activation_engine)
        staged = 0
        configured = False
        if on_mesh:
            configured = (options.eliminate_redundant_config
                          and config == last_config)
            last_config = config
            if not (matrix and options.use_cisc):
                # mvin an operand unless it is already scratchpad-resident.
                bit = 1
                for name in operands:
                    if name not in in_scratchpad:
                        staged |= bit
                        if resident_mode:
                            in_scratchpad.add(name)
                    bit <<= 1
            if resident_mode:
                in_scratchpad.add(op.output)
        # A fence at synchronization boundaries.  With DRAM staging every
        # offloaded op must be fenced before its result is reused; with
        # scratchpad residency only CPU hand-offs need fences, which the
        # ``sync_granularity`` knob batches.
        fence = False
        if on_mesh or kind is ELEMENTWISE or kind is REDUCTION:
            ops_since_sync += 1
            if on_mesh:
                force = not resident_mode
            else:
                force = kind is ELEMENTWISE or not options.use_pooling
            if force or ops_since_sync >= options.sync_granularity:
                ops_since_sync = 0
                fence = True
        key = (signature, staged, configured, fence)
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = _gemmini_block(
                op, options, staged, configured, fence)
        yield block


def lower_gemmini(program: MatlibProgram,
                  options: GemminiLoweringOptions = GemminiLoweringOptions()
                  ) -> InstructionStream:
    """Lower a matlib program to a Gemmini RoCC command stream."""
    plan = plan_scratchpad_residency(program, scratchpad_kb=options.scratchpad_kb)
    blocks = gemmini_blocks(gemmini_plan(program), options,
                            plan.resident_buffers)
    return InstructionStream(
        starmap(GemminiInstruction, chain.from_iterable(blocks)),
        backend="gemmini", name=program.name)
