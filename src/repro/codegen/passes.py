"""Program-level optimization passes.

The code-generation flow (Section 4.3 of the paper) traverses the operator
program (our stand-in for the C AST) and applies the optimizations the
characterization identified:

* **operator fusion** — merge producer/consumer elementwise chains so
  temporaries stay in registers instead of round-tripping through memory
  (Section 4.1.2);
* **scratchpad residency planning** — decide which buffers are pinned in
  Gemmini's scratchpad (the solver matrices and utility identities of
  Figure 8) and which intermediate results can stay resident between
  operations (Section 4.2.4);
* **redundant configuration elimination** — reuse accelerator configuration
  across consecutive operations with identical shapes (Section 4.2.2).

Unrolling and static mapping are lowering-time decisions (they change how an
op is turned into instructions, not the op sequence itself) and live in the
``lower_*`` modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..matlib import MatlibProgram, OpKind, OpRecord, Trace

__all__ = ["fuse_elementwise", "FusionReport", "ScratchpadPlan",
           "plan_scratchpad_residency", "count_redundant_configs"]


@dataclass
class FusionReport:
    """Result of the operator-fusion pass."""

    program: MatlibProgram
    fused_groups: List[Tuple[int, ...]]
    ops_before: int
    ops_after: int
    bytes_saved: int

    @property
    def ops_removed(self) -> int:
        return self.ops_before - self.ops_after


def _merge_records(records: Sequence[OpRecord]) -> OpRecord:
    """Merge a producer/consumer chain of elementwise records into one."""
    first, last = records[0], records[-1]
    internal_outputs = {r.output for r in records[:-1]}
    # External inputs: everything read that was not produced inside the chain.
    inputs: List[str] = []
    shapes: List[Tuple[int, ...]] = []
    for record in records:
        for name, shape in zip(record.inputs, record.shapes):
            if name not in internal_outputs:
                inputs.append(name)
                shapes.append(shape)
    bytes_read = sum(r.bytes_read for r in records)
    bytes_written = last.bytes_written
    # The intermediate stores and re-loads disappear when values stay in
    # registers; we keep only the external reads and the final write.
    internal_bytes = sum(r.bytes_written for r in records[:-1])
    bytes_read = max(bytes_read - internal_bytes, 0)
    return OpRecord(
        name="fused({})".format("+".join(r.name for r in records)),
        kind=last.kind if last.kind is OpKind.REDUCTION else OpKind.ELEMENTWISE,
        inputs=tuple(inputs),
        output=last.output,
        shapes=tuple(shapes),
        out_shape=last.out_shape,
        dtype=last.dtype,
        flops=sum(r.flops for r in records),
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        kernel=first.kernel,
        fused_from=tuple(r.name for r in records),
    )


def fuse_elementwise(program: MatlibProgram) -> FusionReport:
    """Fuse adjacent elementwise producer/consumer chains.

    Chains are grown greedily: while the next op is elementwise (or a
    terminal reduction), reads the current chain's output, and is its sole
    consumer, it joins the chain.
    """
    ops = program.ops
    consumers = program.consumers()
    fused_records: List[OpRecord] = []
    fused_groups: List[Tuple[int, ...]] = []
    bytes_saved = 0

    index = 0
    while index < len(ops):
        chain = [index]
        while True:
            current = chain[-1]
            op = ops[current]
            if current + 1 >= len(ops):
                break
            nxt = ops[current + 1]
            if op.kind is not OpKind.ELEMENTWISE:
                break
            if nxt.kind not in (OpKind.ELEMENTWISE, OpKind.REDUCTION):
                break
            if op.output not in nxt.inputs:
                break
            if consumers[current] != [current + 1]:
                break
            chain.append(current + 1)
            if nxt.kind is OpKind.REDUCTION:
                break
        if len(chain) > 1:
            records = [ops[i] for i in chain]
            merged = _merge_records(records)
            saved = (sum(r.total_bytes for r in records) - merged.total_bytes)
            bytes_saved += max(saved, 0)
            fused_records.append(merged)
            fused_groups.append(tuple(chain))
            index = chain[-1] + 1
        else:
            fused_records.append(ops[index])
            index += 1

    fused_program = MatlibProgram(Trace(fused_records),
                                  name=program.name + "+fused")
    return FusionReport(program=fused_program, fused_groups=fused_groups,
                        ops_before=len(ops), ops_after=len(fused_records),
                        bytes_saved=bytes_saved)


# ---------------------------------------------------------------------------
# Scratchpad residency planning (Figure 8)
# ---------------------------------------------------------------------------

@dataclass
class ScratchpadPlan:
    """Placement of solver buffers into the Gemmini scratchpad."""

    resident_buffers: List[str]
    utility_buffers: List[str]
    spilled_buffers: List[str]
    bytes_used: int
    capacity_bytes: int
    row_assignments: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def fits(self) -> bool:
        return self.bytes_used <= self.capacity_bytes

    @property
    def occupancy(self) -> float:
        if self.capacity_bytes == 0:
            return 0.0
        return self.bytes_used / self.capacity_bytes

    def is_resident(self, buffer_name: str) -> bool:
        return buffer_name in self.resident_buffers or buffer_name in self.utility_buffers


_UTILITY_BUFFERS = ("identity", "neg_identity", "rho_identity")


def plan_scratchpad_residency(program: MatlibProgram,
                              scratchpad_kb: int = 64,
                              row_bytes: int = 16,
                              element_bytes: int = 4) -> ScratchpadPlan:
    """Assign buffers to scratchpad rows, largest persistent buffers first.

    The paper's mapping (Figure 8) pins all solver matrices plus utility
    identity matrices onto the first scratchpad bank so iterative passes
    never touch DRAM.  The plan greedily packs persistent (problem/cache)
    buffers, then per-knot-point workspace vectors, and reports anything
    that does not fit as spilled.
    """
    capacity = scratchpad_kb * 1024
    infos = program.buffers()

    persistent = sorted((name for name in program.persistent_buffers()),
                        key=lambda n: -infos[n].elements)
    temporaries = sorted((name for name, info in infos.items()
                          if info.is_temporary and not name.startswith("<")),
                         key=lambda n: -infos[n].elements)

    resident: List[str] = []
    spilled: List[str] = []
    used = 0
    row_assignments: Dict[str, Tuple[int, int]] = {}
    next_row = 0

    # Utility matrices (identity and scaled identities) used for elementwise
    # work on the mesh; sized by the largest *matrix* operand (long stacked
    # vectors are streamed through the mesh in tiles and do not need a
    # matching identity).
    max_dim = 1
    for info in infos.values():
        if len(info.shape) == 2:
            max_dim = max(max_dim, *info.shape)
    utility_bytes = max_dim * max_dim * element_bytes
    utilities: List[str] = []
    for name in _UTILITY_BUFFERS:
        if used + utility_bytes <= capacity:
            utilities.append(name)
            rows = max(1, -(-utility_bytes // row_bytes))
            row_assignments[name] = (next_row, rows)
            next_row += rows
            used += utility_bytes

    for name in persistent + temporaries:
        size = infos[name].elements * element_bytes
        if used + size <= capacity:
            resident.append(name)
            rows = max(1, -(-size // row_bytes))
            row_assignments[name] = (next_row, rows)
            next_row += rows
            used += size
        else:
            spilled.append(name)

    return ScratchpadPlan(resident_buffers=resident, utility_buffers=utilities,
                          spilled_buffers=spilled, bytes_used=used,
                          capacity_bytes=capacity, row_assignments=row_assignments)


# ---------------------------------------------------------------------------
# Redundant configuration analysis (Section 4.2.2)
# ---------------------------------------------------------------------------

def count_redundant_configs(program: MatlibProgram) -> int:
    """Number of accelerator configuration commands that can be elided.

    A configuration is redundant when the operation has the same operand
    shapes as the immediately preceding matrix operation.
    """
    redundant = 0
    previous_shape: Optional[Tuple] = None
    for op in program.ops:
        if op.kind not in (OpKind.GEMV, OpKind.GEMM):
            continue
        signature = (op.shapes, op.out_shape)
        if signature == previous_shape:
            redundant += 1
        previous_shape = signature
    return redundant
