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

:func:`gemmini_records` is the lowering; it yields plain records that
:func:`lower_gemmini` materializes and the cycle model prices directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from typing import Iterable, Iterator, Optional, Set, Tuple

from ..arch.isa import GemminiInstruction, GemminiOpcode, InstructionStream
from ..matlib import MatlibProgram, OpKind, OpRecord
from .passes import plan_scratchpad_residency

__all__ = ["GemminiLoweringOptions", "gemmini_records", "lower_gemmini"]


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


def gemmini_records(program: MatlibProgram, options: GemminiLoweringOptions,
                    resident: Iterable[str]) -> Iterator[tuple]:
    """The Gemmini lowering: one ``GemminiInstruction`` record per command.

    ``resident`` names the buffers the scratchpad plan pins
    (``plan_scratchpad_residency(...).resident_buffers``); callers pass it
    in so a sweep can plan once per (program, scratchpad size).
    """
    # Enum members read as locals: attribute access on an Enum class is slow.
    CONFIG, MVIN, MVOUT = GemminiOpcode.CONFIG, GemminiOpcode.MVIN, GemminiOpcode.MVOUT
    PRELOAD, COMPUTE = GemminiOpcode.PRELOAD, GemminiOpcode.COMPUTE
    FENCE, CPU_OP = GemminiOpcode.FENCE, GemminiOpcode.CPU_OP
    GEMV, GEMM = OpKind.GEMV, OpKind.GEMM
    ELEMENTWISE, REDUCTION = OpKind.ELEMENTWISE, OpKind.REDUCTION
    DATA_MOVEMENT = OpKind.DATA_MOVEMENT
    static = options.static_mapping
    resident_mode = options.scratchpad_resident
    in_scratchpad: Set[str] = set(resident) if resident_mode else set()
    last_config: Optional[Tuple] = None
    ops_since_sync = 0

    def command(kernel: str, opcode: GemminiOpcode, rows: int = 0,
                cols: int = 0, inner: int = 0, dram: bool = False,
                cisc: bool = False, uses_activation: bool = False,
                pool_factor: int = 1, cpu_flops: int = 0) -> tuple:
        return (kernel, opcode, rows, cols, inner, dram, cisc, static,
                uses_activation, pool_factor, cpu_flops)

    def configure(kernel: str, signature: Tuple, count: int = 1
                  ) -> Tuple[tuple, ...]:
        nonlocal last_config
        if options.eliminate_redundant_config and signature == last_config:
            return ()
        last_config = signature
        return (command(kernel, CONFIG),) * count

    def sync(kernel: str, force: bool = False) -> Tuple[tuple, ...]:
        """A fence at synchronization boundaries.

        With DRAM staging every offloaded op must be fenced before its
        result is reused; with scratchpad residency only CPU hand-offs need
        fences, which the ``sync_granularity`` knob batches.
        """
        nonlocal ops_since_sync
        ops_since_sync += 1
        if force or ops_since_sync >= options.sync_granularity:
            ops_since_sync = 0
            return (command(kernel, FENCE),)
        return ()

    def stage_input(kernel: str, name: str, shape: Tuple[int, ...]
                    ) -> Tuple[tuple, ...]:
        """mvin an operand unless it is already scratchpad-resident."""
        if name in in_scratchpad:
            return ()
        if resident_mode:
            in_scratchpad.add(name)
        rows = shape[0] if shape else 1
        cols = shape[1] if len(shape) > 1 else 1
        return (command(kernel, MVIN, rows=rows, cols=cols,
                        dram=not resident_mode),)

    def retire_output(kernel: str, op: OpRecord, uses_activation: bool = False
                      ) -> Tuple[tuple, ...]:
        """mvout the result; scratchpad-resident results avoid the DRAM trip."""
        rows = op.out_shape[0] if op.out_shape else 1
        cols = op.out_shape[1] if len(op.out_shape) > 1 else 1
        mvout = command(kernel, MVOUT, rows=rows, cols=cols,
                        dram=not resident_mode, uses_activation=uses_activation)
        if resident_mode:
            in_scratchpad.add(op.output)
            return (mvout,) + sync(kernel)
        return (mvout,) + sync(kernel, force=True)

    for op in program.ops:
        kernel = op.kernel or "<untagged>"
        kind = op.kind
        if kind is GEMV or kind is GEMM:
            if op.name == "gemv_t":
                rows, inner = op.shapes[0][1], op.shapes[0][0]
                cols = 1
            elif kind is GEMM:
                rows, inner = op.shapes[0]
                cols = op.out_shape[1] if len(op.out_shape) > 1 else 1
            else:
                rows, inner = op.shapes[0]
                cols = 1
            yield from configure(kernel, (op.shapes, op.out_shape),
                                 count=3 if options.use_cisc else 1)
            for name, shape in zip(op.inputs, op.shapes):
                if shape and not name.startswith("<"):
                    if options.use_cisc:
                        # CISC instructions require operands in memory.
                        yield command(kernel, MVIN, rows=shape[0],
                                      cols=shape[1] if len(shape) > 1 else 1,
                                      dram=True, cisc=True)
                    else:
                        yield from stage_input(kernel, name, shape)
            yield command(kernel, PRELOAD,
                          rows=min(rows, options.mesh_dim),
                          cols=min(cols, options.mesh_dim))
            yield command(kernel, COMPUTE, rows=rows, cols=cols, inner=inner,
                          cisc=options.use_cisc)
            yield from retire_output(kernel, op)
        elif kind is ELEMENTWISE:
            elements = max(op.output_elements, 1)
            if not options.use_activation_engine:
                # Fall back to the CPU: the data must be synchronized out first.
                if resident_mode:
                    yield command(kernel, MVOUT, rows=elements, cols=1)
                yield from sync(kernel, force=True)
                yield command(kernel, CPU_OP, cpu_flops=max(op.flops, elements))
                continue
            # Elementwise work on the mesh: multiply by a resident identity
            # (or scaled identity) with a fused ReLU; abs and clip need two
            # passes.
            passes = 2 if op.name in ("abs", "clip", "axpy", "sub_scaled") else 1
            rows = max(-(-elements // options.mesh_dim), 1)
            yield from configure(kernel, ("elementwise", elements))
            for name, shape in zip(op.inputs, op.shapes):
                if shape and not name.startswith("<"):
                    yield from stage_input(kernel, name, shape)
            for _ in range(passes):
                yield command(kernel, COMPUTE, rows=rows, cols=options.mesh_dim,
                              inner=1, uses_activation=True)
            yield from retire_output(kernel, op, uses_activation=True)
        elif kind is REDUCTION:
            elements = (max(max((max(s) if s else 1) for s in op.shapes), 1)
                        if op.shapes else 1)
            if options.use_pooling:
                # Pooled residual reductions are batched: results accumulate
                # in a pooled output region and the CPU synchronizes once per
                # residual kernel rather than per knot point (the fence comes
                # from the regular sync-granularity policy).
                pooled = max(elements // options.pool_factor, 1)
                yield command(kernel, MVOUT, rows=elements, cols=1,
                              dram=not resident_mode,
                              pool_factor=options.pool_factor)
                yield from sync(kernel)
                yield command(kernel, CPU_OP, cpu_flops=2 * pooled)
            else:
                yield command(kernel, MVOUT, rows=elements, cols=1,
                              dram=not resident_mode)
                yield from sync(kernel, force=True)
                yield command(kernel, CPU_OP, cpu_flops=2 * elements)
        elif kind is DATA_MOVEMENT:
            yield command(kernel, MVIN, rows=max(op.output_elements, 1), cols=1,
                          dram=not resident_mode)
        else:
            yield command(kernel, CPU_OP, cpu_flops=max(op.flops, 1))


def lower_gemmini(program: MatlibProgram,
                  options: GemminiLoweringOptions = GemminiLoweringOptions()
                  ) -> InstructionStream:
    """Lower a matlib program to a Gemmini RoCC command stream."""
    plan = plan_scratchpad_residency(program, scratchpad_kb=options.scratchpad_kb)
    records = gemmini_records(program, options, plan.resident_buffers)
    return InstructionStream(starmap(GemminiInstruction, records),
                             backend="gemmini", name=program.name)
