"""Design-space exploration: performance vs area Pareto frontier (Figure 10).

The sweep evaluates one ADMM-iteration program on every design point in the
catalog as ``design_point`` campaign episodes
(:mod:`repro.fleet.design_point`); it accepts either a pre-built program or
an :class:`~repro.tinympc.problem.MPCProblem` (so sweeps over problem
variants — and the cache keys in :mod:`repro.experiments.runner` — stay
tied to the problem contents rather than to a shared default).
``fidelity="model"`` prices the lowering without materializing the
instruction stream (:func:`repro.arch.cycle_model.model_report`), and
automatically *promotes* the resulting Pareto frontier back to trace
fidelity for confirmation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..arch import list_design_points
from ..matlib import MatlibProgram
from ..tinympc import MPCProblem
from .kernel_experiments import _design_point_results

__all__ = ["fig10_pareto", "pareto_frontier", "dse_campaign"]


def fig10_pareto(program: Optional[MatlibProgram] = None,
                 problem: Optional[MPCProblem] = None,
                 solve_iterations: int = 10,
                 fidelity: str = "trace") -> List[Dict]:
    """One row per design point: area, cycles per solve, achievable ADMM solve
    frequency at 500 MHz, and whether the point is Pareto-optimal.

    At ``fidelity="model"`` the frontier rows also get cycle-exact
    ``trace_*`` confirmation columns, as in :func:`_promote_rows`.
    """
    from ..fleet.design_point import promote_frontier
    results = _design_point_results(
        [dict(design_point=point.name, codegen_level="auto")
         for point in list_design_points()], program, problem,
        fidelity=fidelity, solve_iterations=solve_iterations)
    rows = [{
        "design_point": r.design_point,
        "category": r.category,
        "level": r.codegen_level,
        "area_mm2": r.area_mm2,
        "cycles_per_iteration": r.total_cycles,
        "cycles_per_solve": r.cycles_per_solve,
        "solve_hz_at_500mhz": r.solve_hz_at_500mhz,
    } for r in results]
    frontier = pareto_frontier([(r["area_mm2"], r["solve_hz_at_500mhz"])
                                for r in rows])
    for index, row in enumerate(rows):
        row["pareto_optimal"] = index in frontier
    if fidelity == "model":
        for index, traced in zip(frontier, promote_frontier(results)):
            rows[index]["trace_cycles_per_iteration"] = traced.total_cycles
            rows[index]["trace_confirmed"] = (
                traced.total_cycles == results[index].total_cycles)
    return rows


def _promote_rows(rows: List[Dict], frontier: Sequence[int]) -> None:
    """Re-evaluate model-fidelity design-cell rows at trace fidelity in place.

    The wide sweep ran at model fidelity; the points a designer would pick
    get confirmation columns (``trace_*``) from the materialized stream.
    Both fidelities share the lowering and the pricing function, so
    ``trace_confirmed`` is a tripwire for that sharing breaking, not an
    expected source of disagreement.
    """
    from ..fleet.design_point import DesignPointSpec, compile_via_fleet
    specs = [DesignPointSpec(
        design_point=rows[index]["design_point"],
        codegen_level=rows[index]["codegen_level"],
        program=rows[index]["program"], fidelity="trace",
        lmul=rows[index]["lmul"],
        sync_granularity=rows[index]["sync_granularity"])
        for index in frontier]
    for index, traced in zip(frontier, compile_via_fleet(specs)):
        row = rows[index]
        row["trace_cycles_per_iteration"] = traced.total_cycles
        row["trace_confirmed"] = traced.total_cycles == row["total_cycles"]


def pareto_frontier(points: Sequence[Tuple[float, float]]) -> List[int]:
    """Indices of Pareto-optimal points (minimize area, maximize performance).

    O(n log n): sort by (area asc, performance desc) and sweep once.  A
    point survives iff it has the best performance of its exact area group
    and strictly beats the best performance seen at any smaller area — the
    same dominance rule (ties and duplicates included) as the brute-force
    pairwise check, which the property tests compare against.
    """
    order = sorted(range(len(points)),
                   key=lambda i: (points[i][0], -points[i][1]))
    frontier: List[int] = []
    best = float("-inf")            # best performance at strictly smaller area
    position = 0
    while position < len(order):
        area = points[order[position]][0]
        group_end = position
        while (group_end < len(order)
               and points[order[group_end]][0] == area):
            group_end += 1
        group = order[position:group_end]
        group_best = points[group[0]][1]    # sorted desc within the group
        if group_best > best:
            frontier.extend(i for i in group
                            if points[i][1] == group_best)
            best = group_best
        position = group_end
    return sorted(frontier)


def dse_campaign(design_points: Sequence[str] = (),
                 codegen_levels: Sequence[str] = ("auto",),
                 fidelities: Sequence[str] = ("model",),
                 programs: Sequence[str] = ("iteration",),
                 lmuls: Sequence[int] = (1,),
                 sync_granularities: Sequence[Optional[int]] = (None,),
                 solve_iterations: int = 10,
                 workers: int = 1,
                 promote: bool = True) -> List[Dict]:
    """Free-form design-space exploration campaign (the ``dse`` experiment).

    Sweeps the full cross product of the given axes as ``design_point``
    episodes and returns one row per design cell.  Each (program, fidelity)
    slice gets Pareto flags; with ``promote=True``, model-fidelity frontier
    rows also get cycle-exact ``trace_*`` confirmation columns.
    """
    from ..fleet import CampaignSpec, run_campaign
    spec = CampaignSpec(name="dse", episode_kind="design_point",
                        design_points=tuple(design_points),
                        codegen_levels=tuple(codegen_levels),
                        fidelities=tuple(fidelities),
                        programs=tuple(programs), lmuls=tuple(lmuls),
                        sync_granularities=tuple(sync_granularities),
                        solve_iterations=solve_iterations)
    outcome = run_campaign(spec, workers=workers)
    rows = outcome.aggregate.design_rows()
    for slice_key in sorted({(row["program"], row["fidelity"])
                             for row in rows}):
        indices = [i for i, row in enumerate(rows)
                   if (row["program"], row["fidelity"]) == slice_key]
        frontier = pareto_frontier([(rows[i]["area_mm2"],
                                     rows[i]["solve_hz_at_500mhz"])
                                    for i in indices])
        local_frontier = [indices[j] for j in frontier]
        for i in indices:
            rows[i]["pareto_optimal"] = i in local_frontier
        if promote and slice_key[1] == "model":
            _promote_rows(rows, local_frontier)
    return rows
