"""Gemmini mapping-optimization experiments (Figures 6, 7, 8, 9, 12).

Each function returns the rows the corresponding figure plots: cycles per
ADMM iteration under progressively richer software mappings, the
scratchpad layout plan, the synchronization-overhead sweep, and the
per-kernel engine ablation.

Every compile-and-time sweep evaluates its design points as
``design_point`` campaign episodes (:mod:`repro.fleet.design_point`) and
builds the figure's rows from the returned
:class:`~repro.fleet.design_point.DesignPointResult` metrics.  Figure 8 is
a pure layout-planning table (no compile).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..codegen import plan_scratchpad_residency
from ..matlib import MatlibProgram
from ..tinympc import ALL_KERNELS, KERNEL_CLASSES
from .kernel_experiments import _design_point_results, default_program

__all__ = [
    "fig6_static_mapping",
    "fig7_scratchpad_resident",
    "fig8_scratchpad_layout",
    "fig9_sync_granularity",
    "fig12_engine_ablation",
]

_GEMMINI = "gemmini-4x4-os-64k-rocket"


def fig6_static_mapping(program: Optional[MatlibProgram] = None,
                        design_point: str = _GEMMINI) -> List[Dict]:
    """CISC / dynamic library / unrolled+static mappings (Figure 6)."""
    variants = [
        ("CISC instructions", "cisc"),
        ("fine-grained, dynamic addressing", "library"),
        ("fine-grained, unrolled + static mapping", "static"),
    ]
    results = _design_point_results(
        [dict(design_point=design_point, codegen_level=level)
         for _, level in variants], program)
    baseline = results[0].total_cycles       # cisc is the first variant
    return [{"variant": label, "level": level,
             "cycles": result.total_cycles,
             "rocc_instructions": result.rocc_instructions,
             "speedup_vs_cisc": baseline / result.total_cycles}
            for (label, level), result in zip(variants, results)]


def fig7_scratchpad_resident(program: Optional[MatlibProgram] = None,
                             design_point: str = _GEMMINI) -> List[Dict]:
    """DRAM-staged vs scratchpad-resident iterative passes (Figure 7)."""
    variants = [("DRAM-staged (static mapping)", "static"),
                ("scratchpad-resident", "scratchpad")]
    results = _design_point_results(
        [dict(design_point=design_point, codegen_level=level)
         for _, level in variants], program)
    baseline = results[0].total_cycles
    return [{"variant": label, "level": level,
             "cycles": result.total_cycles,
             "fences": result.fences,
             "dram_transfers": result.dram_transfers,
             "speedup_vs_dram_staged": baseline / result.total_cycles}
            for (label, level), result in zip(variants, results)]


def fig8_scratchpad_layout(program: Optional[MatlibProgram] = None,
                           scratchpad_kb: int = 64) -> List[Dict]:
    """Workspace-to-scratchpad mapping (Figure 8) as one row per buffer."""
    program = program or default_program()
    plan = plan_scratchpad_residency(program, scratchpad_kb=scratchpad_kb)
    rows = []
    for name in plan.utility_buffers + plan.resident_buffers:
        start, count = plan.row_assignments.get(name, (0, 0))
        rows.append({"buffer": name, "start_row": start, "rows": count,
                     "utility": name in plan.utility_buffers})
    rows.append({"buffer": "<total>", "start_row": 0,
                 "rows": sum(r["rows"] for r in rows),
                 "utility": False,
                 "occupancy": plan.occupancy,
                 "spilled": len(plan.spilled_buffers)})
    return rows


def fig9_sync_granularity(program: Optional[MatlibProgram] = None,
                          design_point: str = _GEMMINI,
                          granularities: tuple = (1, 2, 4, 8, 16, 32)
                          ) -> List[Dict]:
    """CPU-Gemmini synchronization overhead vs offload granularity (Figure 9)."""
    results = _design_point_results(
        [dict(design_point=design_point, codegen_level="optimized",
              sync_granularity=granularity) for granularity in granularities],
        program)
    rows = []
    for granularity, result in zip(granularities, results):
        stall = result.cycles_by_category.get("stall", 0.0)
        rows.append({"ops_per_sync": granularity, "fences": result.fences,
                     "total_cycles": result.total_cycles,
                     "sync_stall_cycles": stall,
                     "sync_overhead_fraction": stall / result.total_cycles})
    return rows


def fig12_engine_ablation(program: Optional[MatlibProgram] = None,
                          design_point: str = _GEMMINI) -> List[Dict]:
    """Gemmini kernel speedups: mesh only vs +elementwise engines vs +pooling
    (Figure 12), relative to the Rocket Eigen scalar baseline."""
    levels = {"mesh_only": "scratchpad", "elementwise_engines": "elementwise",
              "elementwise_plus_pool": "optimized"}
    baseline, *results = _design_point_results(
        [dict(design_point="rocket", codegen_level="eigen")]
        + [dict(design_point=design_point, codegen_level=level)
           for level in levels.values()], program)
    variants = dict(zip(levels, results))
    rows = []
    for kernel in ALL_KERNELS:
        base = baseline.cycles_by_kernel.get(kernel, 0.0)
        if base == 0.0:
            continue
        row = {"kernel": kernel, "class": KERNEL_CLASSES[kernel]}
        for name, result in variants.items():
            cycles = result.cycles_by_kernel.get(kernel, 0.0)
            row["{}_speedup".format(name)] = base / max(cycles, 1e-9)
        rows.append(row)
    total = {"kernel": "total", "class": "all"}
    for name, result in variants.items():
        total["{}_speedup".format(name)] = (
            baseline.total_cycles / max(result.total_cycles, 1e-9))
    rows.append(total)
    return rows
