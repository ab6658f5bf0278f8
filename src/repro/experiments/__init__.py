"""Per-figure/table experiment drivers and the experiment registry."""

from .kernel_experiments import (
    default_program,
    fig1_flop_breakdown,
    fig3_library_vs_optimized,
    fig4_lmul_sweep,
    fig5_operator_fusion,
    fig11_frontend_comparison,
    fig13_kernel_comparison,
    headline_speedups,
    sec43_codegen_cycles,
)
from .gemmini_experiments import (
    fig6_static_mapping,
    fig7_scratchpad_resident,
    fig8_scratchpad_layout,
    fig9_sync_granularity,
    fig12_engine_ablation,
)
from .pareto_experiments import fig10_pareto, pareto_frontier
from .fleet_experiments import fleet_campaign
from .hil_experiments import (
    fig15_scenarios,
    fig16_hil_sweep,
    fig17_disturbance_recovery,
    fig18_swap_variants,
    sec53_concurrent_tasks,
    table1_variants,
)
from .registry import (
    EXPERIMENTS,
    Experiment,
    format_rows,
    list_experiments,
    run_experiment,
)

__all__ = [
    "default_program",
    "fig1_flop_breakdown",
    "fig3_library_vs_optimized",
    "fig4_lmul_sweep",
    "fig5_operator_fusion",
    "fig11_frontend_comparison",
    "fig13_kernel_comparison",
    "headline_speedups",
    "sec43_codegen_cycles",
    "fig6_static_mapping",
    "fig7_scratchpad_resident",
    "fig8_scratchpad_layout",
    "fig9_sync_granularity",
    "fig12_engine_ablation",
    "fig10_pareto",
    "pareto_frontier",
    "fleet_campaign",
    "fig15_scenarios",
    "fig16_hil_sweep",
    "fig17_disturbance_recovery",
    "fig18_swap_variants",
    "sec53_concurrent_tasks",
    "table1_variants",
    "EXPERIMENTS",
    "Experiment",
    "format_rows",
    "list_experiments",
    "run_experiment",
]
