"""Experiment registry: maps paper table/figure identifiers to drivers.

Every entry regenerates the rows of one artifact from the paper's
evaluation.  ``run_experiment(<id>)`` executes the default (benchmark-sized)
configuration; the underlying functions accept keyword arguments for
full-scale runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from . import (
    fleet_experiments,
    gemmini_experiments,
    hil_experiments,
    kernel_experiments,
    pareto_experiments,
)

__all__ = ["Experiment", "EXPERIMENTS", "run_experiment", "list_experiments",
           "format_rows"]


@dataclass(frozen=True)
class Experiment:
    """One paper artifact and the driver that regenerates it."""

    identifier: str
    title: str
    driver: Callable[..., List[Dict]]
    section: str


EXPERIMENTS: Dict[str, Experiment] = {
    experiment.identifier: experiment for experiment in [
        Experiment("fig1", "FLOP breakdown of TinyMPC kernels",
                   kernel_experiments.fig1_flop_breakdown, "3.1"),
        Experiment("fig3", "Out-of-box matlib vs hand-optimized TinyMPC",
                   kernel_experiments.fig3_library_vs_optimized, "4.1"),
        Experiment("fig4", "TinyMPC on Saturn with varying LMUL",
                   kernel_experiments.fig4_lmul_sweep, "4.1.1"),
        Experiment("fig5", "Library vs fused-operator speedup on Saturn",
                   kernel_experiments.fig5_operator_fusion, "4.1.2"),
        Experiment("fig6", "Gemmini loop unrolling and static mapping",
                   gemmini_experiments.fig6_static_mapping, "4.2.1-4.2.3"),
        Experiment("fig7", "Gemmini scratchpad-resident workloads",
                   gemmini_experiments.fig7_scratchpad_resident, "4.2.4"),
        Experiment("fig8", "TinyMPC workspace mapping onto the scratchpad",
                   gemmini_experiments.fig8_scratchpad_layout, "4.2.4"),
        Experiment("fig9", "Kernel granularity vs CPU-Gemmini sync overhead",
                   gemmini_experiments.fig9_sync_granularity, "4.2.7"),
        Experiment("fig10", "Performance vs area Pareto frontier",
                   pareto_experiments.fig10_pareto, "5.1"),
        Experiment("dse", "Design-space exploration campaign over the "
                          "architecture x codegen x fidelity grid",
                   pareto_experiments.dse_campaign, "5.1 / north star"),
        Experiment("fig11", "Saturn kernels with Rocket vs Shuttle frontend",
                   kernel_experiments.fig11_frontend_comparison, "5.1.2"),
        Experiment("fig12", "Gemmini kernel breakdown with engine ablation",
                   gemmini_experiments.fig12_engine_ablation, "5.1.3"),
        Experiment("fig13", "Kernel performance across architectures",
                   kernel_experiments.fig13_kernel_comparison, "5.1.5"),
        Experiment("table1", "CrazyFlie variant parameters",
                   hil_experiments.table1_variants, "5.4"),
        Experiment("fig15", "Waypoint scenario difficulty overview",
                   hil_experiments.fig15_scenarios, "5.2"),
        Experiment("fig16", "HIL solve time, success rate, and power",
                   hil_experiments.fig16_hil_sweep, "5.2"),
        Experiment("fig17", "Disturbance recovery time",
                   hil_experiments.fig17_disturbance_recovery, "5.2"),
        Experiment("fig18", "SWaP variant success and power",
                   hil_experiments.fig18_swap_variants, "5.4"),
        Experiment("fleet_campaign", "Fleet campaign: mixed-configuration HIL grid",
                   fleet_experiments.fleet_campaign, "5.2 / north star"),
        Experiment("sec43", "Automated code-generation cycle counts",
                   kernel_experiments.sec43_codegen_cycles, "4.3"),
        Experiment("sec53", "Concurrent MPC + DroNet tasks",
                   hil_experiments.sec53_concurrent_tasks, "5.3"),
        Experiment("headline", "Up to 3.71x MPC speedup claim",
                   kernel_experiments.headline_speedups, "1 / 6"),
    ]
}


def list_experiments() -> List[Experiment]:
    return list(EXPERIMENTS.values())


def run_experiment(identifier: str, **kwargs) -> List[Dict]:
    """Run one experiment driver by its paper identifier.

    Keyword arguments are forwarded to the driver.
    """
    try:
        experiment = EXPERIMENTS[identifier]
    except KeyError:
        raise KeyError("unknown experiment {!r}; available: {}".format(
            identifier, ", ".join(sorted(EXPERIMENTS)))) from None
    return experiment.driver(**kwargs)


def format_rows(rows: List[Dict], float_format: str = "{:.3g}") -> str:
    """Render experiment rows as a fixed-width text table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    rendered: List[List[str]] = [columns]
    for row in rows:
        rendered.append([
            float_format.format(row.get(c)) if isinstance(row.get(c), float)
            else str(row.get(c, "")) for c in columns])
    widths = [max(len(line[i]) for line in rendered) for i in range(len(columns))]
    lines = []
    for index, line in enumerate(rendered):
        lines.append("  ".join(value.ljust(width) for value, width in zip(line, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
