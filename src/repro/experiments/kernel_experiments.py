"""Kernel- and algorithm-level experiments (Figures 1, 3, 4, 5, 11, 13; Sec. 4.3).

Every function returns a list of plain dict rows — the same rows the paper's
figures plot — so the benchmark harness can print and sanity-check them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..codegen import CodegenFlow
from ..matlib import MatlibProgram
from ..tinympc import (
    ALL_KERNELS,
    KERNEL_CLASSES,
    MPCProblem,
    build_iteration_program,
    default_quadrotor_problem,
    kernel_flop_breakdown,
)

__all__ = [
    "fig1_flop_breakdown",
    "fig3_library_vs_optimized",
    "fig4_lmul_sweep",
    "fig5_operator_fusion",
    "fig11_frontend_comparison",
    "fig13_kernel_comparison",
    "sec43_codegen_cycles",
    "headline_speedups",
    "default_program",
]


def default_program(problem: Optional[MPCProblem] = None) -> MatlibProgram:
    """The reference workload: one ADMM iteration of the CrazyFlie problem."""
    problem = problem or default_quadrotor_problem()
    return build_iteration_program(problem)


def _design_point_results(cells: Sequence[Dict[str, object]],
                          program: Optional[MatlibProgram] = None,
                          problem: Optional[MPCProblem] = None, **shared):
    """Evaluate design-point cells of one program as fleet campaign episodes.

    Each cell holds :class:`~repro.fleet.design_point.DesignPointSpec`
    fields (``design_point``, ``codegen_level``, optionally ``lmul`` or
    ``sync_granularity``); ``shared`` fields (``fidelity``,
    ``solve_iterations``) apply to every cell.  The program is the
    registered default unless ``program`` or ``problem`` is given.
    Results come back in cell order.
    """
    from ..fleet.design_point import (DesignPointSpec, compile_via_fleet,
                                      intern_program)
    if program is None and problem is not None:
        program = default_program(problem)
    name = "iteration" if program is None else intern_program(program)
    return compile_via_fleet([DesignPointSpec(program=name, **shared, **cell)
                              for cell in cells])


# ---------------------------------------------------------------------------
# Figure 1: FLOP breakdown of TinyMPC kernels
# ---------------------------------------------------------------------------

def fig1_flop_breakdown(problem: Optional[MPCProblem] = None) -> List[Dict]:
    problem = problem or default_quadrotor_problem()
    breakdown = kernel_flop_breakdown(problem)
    total = sum(breakdown.values()) or 1
    rows = []
    for kernel in ALL_KERNELS:
        flops = breakdown.get(kernel, 0)
        rows.append({
            "kernel": kernel,
            "class": KERNEL_CLASSES[kernel],
            "flops": flops,
            "share": flops / total,
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 3: out-of-box matlib vs hand-optimized implementations
# ---------------------------------------------------------------------------

def fig3_library_vs_optimized(program: Optional[MatlibProgram] = None) -> List[Dict]:
    program = program or default_program()
    flow = CodegenFlow()
    variants = [
        ("Rocket + scalar matlib", "rocket", "library"),
        ("Rocket + optimized Eigen", "rocket", "eigen"),
        ("Saturn (Rocket) + vectorized matlib", "saturn-v512-d256-rocket", "library"),
        ("Saturn (Rocket) + hand-optimized RVV", "saturn-v512-d256-rocket", "fused"),
    ]
    baseline = flow.compile(program, "rocket", "library").cycles
    rows = []
    for label, design_point, level in variants:
        cycles = flow.compile(program, design_point, level).cycles
        rows.append({"variant": label, "design_point": design_point, "level": level,
                     "cycles": cycles, "speedup_vs_scalar_matlib": baseline / cycles})
    return rows


# ---------------------------------------------------------------------------
# Figure 4: LMUL register-grouping sweep on Saturn
# ---------------------------------------------------------------------------

def fig4_lmul_sweep(program: Optional[MatlibProgram] = None,
                    design_point: str = "saturn-v512-d256-rocket") -> List[Dict]:
    lmuls = (1, 2, 4, 8)
    results = _design_point_results(
        [dict(design_point=design_point, codegen_level="library", lmul=lmul)
         for lmul in lmuls], program)
    rows = []
    for lmul, result in zip(lmuls, results):
        by_class = {"iterative": 0.0, "elementwise": 0.0, "reduction": 0.0}
        for kernel, cycles in result.cycles_by_kernel.items():
            by_class[KERNEL_CLASSES.get(kernel, "elementwise")] += cycles
        rows.append({"lmul": lmul, "total_cycles": result.total_cycles,
                     "iterative_cycles": by_class["iterative"],
                     "elementwise_cycles": by_class["elementwise"],
                     "reduction_cycles": by_class["reduction"]})
    return rows


# ---------------------------------------------------------------------------
# Figure 5: library vs fused-operator speedup per kernel on Saturn
# ---------------------------------------------------------------------------

def fig5_operator_fusion(program: Optional[MatlibProgram] = None,
                         design_point: str = "saturn-v512-d256-rocket") -> List[Dict]:
    program = program or default_program()
    flow = CodegenFlow()
    library = flow.compile(program, design_point, "library").report
    fused = flow.compile(program, design_point, "fused").report
    rows = []
    for kernel in ALL_KERNELS:
        lib_cycles = library.cycles_by_kernel.get(kernel, 0.0)
        fus_cycles = fused.cycles_by_kernel.get(kernel, 0.0)
        if lib_cycles == 0.0:
            continue
        rows.append({"kernel": kernel, "class": KERNEL_CLASSES[kernel],
                     "library_cycles": lib_cycles, "fused_cycles": fus_cycles,
                     "speedup": lib_cycles / max(fus_cycles, 1e-9)})
    rows.append({"kernel": "total", "class": "all",
                 "library_cycles": library.total_cycles,
                 "fused_cycles": fused.total_cycles,
                 "speedup": library.total_cycles / fused.total_cycles})
    return rows


# ---------------------------------------------------------------------------
# Figure 11: Saturn kernel performance with Rocket vs Shuttle frontends
# ---------------------------------------------------------------------------

def fig11_frontend_comparison(program: Optional[MatlibProgram] = None) -> List[Dict]:
    program = program or default_program()
    flow = CodegenFlow()
    scalar = flow.compile(program, "rocket", "eigen").report
    rocket_front = flow.compile(program, "saturn-v512-d256-rocket", "fused").report
    shuttle_front = flow.compile(program, "saturn-v512-d256-shuttle", "fused").report
    rows = []
    for kernel in ALL_KERNELS:
        base = scalar.cycles_by_kernel.get(kernel, 0.0)
        if base == 0.0:
            continue
        rows.append({
            "kernel": kernel,
            "class": KERNEL_CLASSES[kernel],
            "scalar_cycles": base,
            "rocket_frontend_speedup": base / max(rocket_front.cycles_by_kernel.get(kernel, 1e-9), 1e-9),
            "shuttle_frontend_speedup": base / max(shuttle_front.cycles_by_kernel.get(kernel, 1e-9), 1e-9),
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 13: kernel-level performance across architectures
# ---------------------------------------------------------------------------

_FIG13_VARIANTS = (
    ("superscalar (Shuttle, Eigen)", "shuttle", "eigen"),
    ("vector (Saturn V512D512, Rocket)", "saturn-v512-d512-rocket", "fused"),
    ("systolic (Gemmini 4x4 OS, Rocket)", "gemmini-4x4-os-64k-rocket",
     "optimized"),
)


def fig13_kernel_comparison(program: Optional[MatlibProgram] = None,
                            problem: Optional[MPCProblem] = None) -> List[Dict]:
    baseline, *results = _design_point_results(
        [dict(design_point="rocket", codegen_level="eigen")]
        + [dict(design_point=point, codegen_level=level)
           for _, point, level in _FIG13_VARIANTS], program, problem)
    rows = []
    for kernel in ALL_KERNELS:
        base = baseline.cycles_by_kernel.get(kernel, 0.0)
        if base == 0.0:
            continue
        row = {"kernel": kernel, "class": KERNEL_CLASSES[kernel],
               "rocket_cycles": base}
        for (label, _, _), result in zip(_FIG13_VARIANTS, results):
            cycles = result.cycles_by_kernel.get(kernel, 0.0)
            row[label] = base / max(cycles, 1e-9)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Section 4.3: automated code-generation cycle counts
# ---------------------------------------------------------------------------

def sec43_codegen_cycles(problem: Optional[MPCProblem] = None,
                         solve_iterations: int = 10) -> List[Dict]:
    """Scalar baseline vs vectorized baseline vs automated unrolled+fused.

    The paper quotes ~11 M / 1.35 M / 0.55 M cycles for a full quadrotor
    tracking solve; we report per-solve cycles (one iteration's program
    scaled by the solver's iteration count) and the two speedup ratios.
    """
    problem = problem or default_quadrotor_problem()
    program = build_iteration_program(problem)
    flow = CodegenFlow()
    scalar = flow.compile(program, "rocket", "library").cycles * solve_iterations
    vector_baseline = flow.compile(program, "saturn-v512-d256-rocket",
                                   "library").cycles * solve_iterations
    vector_fused = flow.compile(program, "saturn-v512-d256-rocket",
                                "fused").cycles * solve_iterations
    return [
        {"variant": "scalar baseline (CPU)", "cycles_per_solve": scalar,
         "speedup_vs_scalar": 1.0},
        {"variant": "vectorized baseline (RVV, no grouping)",
         "cycles_per_solve": vector_baseline,
         "speedup_vs_scalar": scalar / vector_baseline},
        {"variant": "automated unrolled + fused",
         "cycles_per_solve": vector_fused,
         "speedup_vs_scalar": scalar / vector_fused,
         "speedup_vs_vector_baseline": vector_baseline / vector_fused},
    ]


# ---------------------------------------------------------------------------
# Headline claim: up to 3.71x speedup for MPC
# ---------------------------------------------------------------------------

def headline_speedups(program: Optional[MatlibProgram] = None) -> List[Dict]:
    """Best per-kernel and end-to-end speedups of the optimized vector build
    over the optimized scalar baseline (the paper's 'up to 3.71x')."""
    program = program or default_program()
    flow = CodegenFlow()
    scalar = flow.compile(program, "rocket", "eigen").report
    vector = flow.compile(program, "saturn-v512-d256-shuttle", "fused").report
    per_kernel = []
    for kernel in ALL_KERNELS:
        base = scalar.cycles_by_kernel.get(kernel, 0.0)
        opt = vector.cycles_by_kernel.get(kernel, 0.0)
        if base > 0 and opt > 0:
            per_kernel.append(base / opt)
    return [{
        "end_to_end_speedup": scalar.total_cycles / vector.total_cycles,
        "best_kernel_speedup": max(per_kernel) if per_kernel else 0.0,
        "scalar_cycles": scalar.total_cycles,
        "vector_cycles": vector.total_cycles,
    }]
