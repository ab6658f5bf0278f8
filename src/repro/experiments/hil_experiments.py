"""Hardware-in-the-loop experiments (Table 1, Figures 15-18, Section 5.3).

The closed-loop episodes are the slow part of the reproduction, so every
sweep accepts ``episodes_per_cell`` / frequency-list arguments that default
to small values suitable for the benchmark harness; pass larger values to
approach the paper's 20-scenario-per-difficulty methodology.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..drone import (
    Difficulty,
    DisturbanceCategory,
    all_variants,
    generate_scenario,
    scenario_overview_table,
)
from ..hil import RTOSModel, SoCModel, aggregate_cell
from .kernel_experiments import default_program

__all__ = [
    "table1_variants",
    "fig15_scenarios",
    "fig16_hil_sweep",
    "fig17_disturbance_recovery",
    "fig18_swap_variants",
    "sec53_concurrent_tasks",
]


# ---------------------------------------------------------------------------
# Table 1 and Figure 15
# ---------------------------------------------------------------------------

def table1_variants() -> List[Dict]:
    """Mechanical/electrical parameters of the CrazyFlie variants (Table 1)."""
    return [params.summary() for params in all_variants().values()]


def fig15_scenarios(seeds_per_difficulty: int = 3) -> List[Dict]:
    """Scenario-difficulty overview plus measured statistics of generated sets."""
    rows = []
    for spec_row in scenario_overview_table():
        difficulty = Difficulty(spec_row["difficulty"])
        scenarios = [generate_scenario(difficulty, seed)
                     for seed in range(seeds_per_difficulty)]
        measured = float(np.mean([s.average_leg_distance() for s in scenarios]))
        row = dict(spec_row)
        row["measured_average_leg_distance_m"] = measured
        row["scenario_duration_s"] = scenarios[0].duration
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 16: solve time / success rate / power vs clock frequency
# ---------------------------------------------------------------------------

def _configuration_results(difficulties: Sequence[Difficulty],
                           episodes_per_cell: int, implementation: str,
                           frequency_mhz: float, variant: str,
                           batched: bool) -> List:
    """Fly one HIL configuration's scenario grid as one fleet campaign;
    results in ``difficulty > seed`` order."""
    from ..fleet import CampaignSpec, run_campaign

    spec = CampaignSpec(difficulties=tuple(difficulties),
                        seeds=tuple(range(episodes_per_cell)),
                        implementations=(implementation,),
                        frequencies_mhz=(frequency_mhz,),
                        variants=(variant,))
    return run_campaign(spec, batching=batched).results


def fig16_hil_sweep(implementations: Sequence[str] = ("scalar", "vector"),
                    frequencies_mhz: Sequence[float] = (50.0, 100.0, 250.0, 500.0),
                    difficulties: Sequence[Difficulty] = (Difficulty.EASY,
                                                          Difficulty.MEDIUM,
                                                          Difficulty.HARD),
                    episodes_per_cell: int = 3,
                    include_ideal: bool = True,
                    batched: bool = True) -> List[Dict]:
    """The full HIL sweep: one row per (implementation, frequency, difficulty).

    Each configuration's whole scenario grid — all difficulties times
    ``episodes_per_cell`` seeds — runs as one campaign through
    :func:`repro.fleet.run_campaign`, so with ``batched=True`` (the default)
    its solves share one batch group: numerically equivalent to, and
    several times faster than, the sequential loop.
    """
    rows: List[Dict] = []
    configurations = [(impl, freq) for impl in implementations
                      for freq in frequencies_mhz]
    if include_ideal:
        configurations.append(("ideal", 0.0))
    for implementation, frequency in configurations:
        results = _configuration_results(
            difficulties, episodes_per_cell, implementation,
            frequency if frequency else 100.0, "CrazyFlie", batched)
        for index, difficulty in enumerate(difficulties):
            cell_results = results[index * episodes_per_cell:
                                   (index + 1) * episodes_per_cell]
            cell = aggregate_cell(cell_results)
            row = cell.as_row()
            row["implementation"] = implementation
            row["frequency_mhz"] = frequency
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 17: disturbance recovery
# ---------------------------------------------------------------------------

def fig17_disturbance_recovery(frequency_mhz: float = 100.0,
                               force_magnitude: float = 0.08,
                               torque_magnitude: float = 0.002,
                               implementations: Sequence[str] = ("scalar",
                                                                 "vector"),
                               seeds: int = 1,
                               workers: int = 1,
                               batched: bool = True) -> List[Dict]:
    """Time-to-recovery per disturbance category, scalar vs vector at 100 MHz.

    The full suite — every implementation times the paper's 14 step/impulse
    disturbances times ``seeds`` repetitions — runs as one recovery campaign
    through :func:`repro.fleet.run_campaign`: all episodes share one MPC
    problem, so the fleet scheduler packs their solves into batched GEMM
    dispatches with pooled workspaces instead of a serial scalar solve
    stream.  ``batched=False`` forces the scalar solve path (bit-for-bit
    the sequential :meth:`HILLoop.run_disturbance` reference); discrete
    recovery outcomes are identical either way.
    """
    from ..fleet import CampaignSpec, run_campaign

    spec = CampaignSpec(
        name="fig17",
        episode_kind="recovery",
        seeds=tuple(range(seeds)),
        implementations=tuple(implementations),
        frequencies_mhz=(frequency_mhz,),
        disturbance_force_n=force_magnitude,
        disturbance_torque_nm=torque_magnitude,
    )
    outcome = run_campaign(spec, workers=workers, batching=batched)

    by_cell: Dict[tuple, List] = {}
    for episode, result in zip(outcome.episodes, outcome.results):
        cell = (episode.implementation, episode.disturbance.category)
        by_cell.setdefault(cell, []).append(result)

    # "disturbances" keeps its historical meaning: the number of distinct
    # disturbance events per category (6 forces, 6 torques, 2 combined for
    # the default suite), independent of implementations and seeds.
    suite = spec.disturbances()
    events_per_category = {
        category: sum(1 for d in suite if d.category is category)
        for category in DisturbanceCategory}

    rows: List[Dict] = []
    for category in DisturbanceCategory:
        row: Dict = {"category": category.value,
                     "disturbances": events_per_category[category]}
        ttr_means: Dict[str, float] = {}
        for implementation in implementations:
            results = by_cell.get((implementation, category), [])
            times = [r.time_to_recovery for r in results
                     if r.recovered and r.time_to_recovery is not None]
            row["{}_recovered".format(implementation)] = len(times)
            row["{}_mean_ttr_s".format(implementation)] = (
                float(np.mean(times)) if times else float("nan"))
            if times:
                ttr_means[implementation] = float(np.mean(times))
        if "scalar" in ttr_means and "vector" in ttr_means:
            row["ttr_improvement_pct"] = 100.0 * (
                1.0 - ttr_means["vector"] / ttr_means["scalar"])
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 18: SWaP variants
# ---------------------------------------------------------------------------

def fig18_swap_variants(frequencies_mhz: Sequence[float] = (100.0, 500.0),
                        difficulties: Sequence[Difficulty] = (Difficulty.EASY,
                                                              Difficulty.MEDIUM,
                                                              Difficulty.HARD),
                        episodes_per_cell: int = 2,
                        implementation: str = "vector",
                        batched: bool = True) -> List[Dict]:
    """Mission success and power for CrazyFlie / Hawk / Heron, using the
    lowest-power adequate frequency per variant (Figure 18).

    As in :func:`fig16_hil_sweep`, each (variant, frequency) cell's scenario
    grid runs as one campaign, batched when ``batched=True``.
    """
    rows: List[Dict] = []
    for name in all_variants():
        best_row: Optional[Dict] = None
        for frequency in frequencies_mhz:
            results = _configuration_results(
                difficulties, episodes_per_cell, implementation, frequency,
                name, batched)
            success = sum(1 for r in results if r.success) / len(results)
            power = float(np.mean([r.total_power_w for r in results]))
            row = {"variant": name, "frequency_mhz": frequency,
                   "success_rate": success, "mean_total_power_w": power,
                   "mean_actuation_power_w": float(
                       np.mean([r.actuation_power_w for r in results])),
                   "mean_soc_power_w": float(
                       np.mean([r.soc_power_w for r in results]))}
            if (best_row is None
                    or (row["success_rate"], -row["mean_total_power_w"])
                    > (best_row["success_rate"], -best_row["mean_total_power_w"])):
                best_row = row
        best_row["selected"] = True
        rows.append(best_row)
    return rows


# ---------------------------------------------------------------------------
# Section 5.3: concurrent MPC + DroNet tasks
# ---------------------------------------------------------------------------

def sec53_concurrent_tasks(frequency_mhz: float = 100.0,
                           mpc_rate_hz: float = 50.0) -> List[Dict]:
    """MPC CPU occupancy and DroNet frame rate for scalar vs vector MPC."""
    from ..tinympc import default_quadrotor_problem

    problem = default_quadrotor_problem()
    program = default_program(problem)
    rtos = RTOSModel(mpc_rate_hz=mpc_rate_hz)
    rows = []
    reports = {}
    for implementation in ("scalar", "vector"):
        soc = SoCModel.from_implementation(implementation, frequency_mhz)
        soc.compile_problem(problem, program=program)
        solve_time = soc.solve_latency(iterations=10)
        report = rtos.report(implementation, frequency_mhz, solve_time)
        reports[implementation] = report
        rows.append(report.as_row())
    rows.append({
        "implementation": "vector vs scalar",
        "frequency_mhz": frequency_mhz,
        "mpc_rate_hz": mpc_rate_hz,
        "mpc_solve_time_ms": 0.0,
        "mpc_cpu_occupancy_pct": (reports["scalar"].mpc_cpu_occupancy
                                  - reports["vector"].mpc_cpu_occupancy) * 100.0,
        "background_fps": reports["vector"].background_fps,
        "fps_improvement": (reports["vector"].background_fps
                            / reports["scalar"].background_fps),
    })
    return rows
