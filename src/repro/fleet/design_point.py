"""Design-space exploration as a first-class campaign episode kind.

The paper's hardware sweeps (Figures 6-13) compile one ADMM-iteration
program against a catalog of accelerator design points — scalar cores,
Saturn vector units, Gemmini systolic arrays — at named codegen
optimization levels.  This module turns each *(program, design point,
level, lmul, sync granularity, fidelity)* grid cell into a solver-less
campaign episode, so the whole fleet stack (sharded workers, the durable
journal, chunk bisection, the chaos harness) runs design-space sweeps
unchanged.  A design point needs no MPC solve, so it never enters the
scheduler: the chunk runner (:class:`~repro.fleet.supervisor.ChunkRunner`)
calls :func:`evaluate_design_point` on it directly.

Two *fidelities* evaluate a grid point:

``"trace"``
    Full codegen: lower the program to an instruction stream and replay it
    through the design point's cycle-accurate backend timing model
    (:meth:`~repro.codegen.flow.CodegenFlow.compile`).
``"model"``
    The closed-form analytical cycle model
    (:mod:`repro.arch.cycle_model`), validated bit-exact against the trace
    on the whole catalog and several times faster — the fidelity to sweep
    wide with.  :func:`promote_frontier` re-evaluates a model sweep's
    Pareto frontier at trace fidelity.

Every evaluation computes its result; nothing is memoized across episodes
(a sweep's grid points are distinct, so a result memo never hits).  The
design-sweep figure drivers (Figures 4, 6, 7, 9, 10, 12 and 13) evaluate
through this kind, and ``tests/fleet/fixtures/figure_rows.json`` pins their
rows.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..arch import get_design_point, list_design_points
from ..arch.configs import DesignPoint
from ..arch.cycle_model import model_report, stream_counters
from ..codegen import OPTIMIZATION_LEVELS, CodegenFlow
from ..matlib import MatlibProgram
from .campaign import SPEC_SCHEMA_VERSION, _check_schema_version
from .kinds import EpisodeKind, register_episode_kind

__all__ = [
    "FIDELITIES", "DESIGN_CELL_AXES", "DesignPointSpec", "DesignPointResult",
    "DesignCellAggregate", "DesignPointKind", "default_level_for",
    "register_program_variant", "resolve_program", "intern_program",
    "program_fingerprint", "evaluate_design_point", "clear_result_cache",
    "compile_via_fleet", "spec_from_result", "promote_frontier",
]

FIDELITIES = ("trace", "model")

# Column order of DesignPointSpec.cell_key() / DesignCellAggregate rows.
DESIGN_CELL_AXES: Tuple[str, ...] = (
    "program", "design_point", "category", "codegen_level", "lmul",
    "sync_granularity", "fidelity")


def default_level_for(point: DesignPoint) -> str:
    """The codegen level a design point is evaluated at by default.

    Matches the paper's Figure 10 mapping: the best software variant per
    category, except the weight-stationary Gemmini design, which only
    received the baseline optimizations (Section 5.1.5).
    """
    if point.category == "scalar":
        return "eigen"
    if point.category == "vector":
        return "fused"
    if point.config.dataflow == "WS":
        return "static"
    return "optimized"


# ---------------------------------------------------------------------------
# Program registry: named programs are what worker shards can rebuild
# ---------------------------------------------------------------------------

def _build_iteration_program() -> MatlibProgram:
    from ..experiments.kernel_experiments import default_program
    return default_program()


_PROGRAM_BUILDERS: Dict[str, Callable[[], MatlibProgram]] = {
    "iteration": _build_iteration_program,
}
_PROGRAM_CACHE: Dict[str, MatlibProgram] = {}


def register_program_variant(name: str,
                             builder: Callable[[], MatlibProgram]) -> None:
    """Register a named program so sharded workers can rebuild it.

    Re-registering a name replaces its program: the next
    :func:`resolve_program` builds it from the new builder.
    """
    _PROGRAM_BUILDERS[name] = builder
    _PROGRAM_CACHE.pop(name, None)


def resolve_program(name: str) -> MatlibProgram:
    """The program a spec names (memoized per process)."""
    if name not in _PROGRAM_CACHE:
        try:
            builder = _PROGRAM_BUILDERS[name]
        except KeyError:
            raise ValueError(
                "unknown program {!r}; registered: {}".format(
                    name, ", ".join(sorted(_PROGRAM_BUILDERS)))) from None
        _PROGRAM_CACHE[name] = builder()
    return _PROGRAM_CACHE[name]


def intern_program(program: MatlibProgram) -> str:
    """Register an ad-hoc program under a content-derived name.

    The name is only resolvable in the current process (the program object
    itself is kept, not a rebuild recipe), so specs naming an interned
    program must run in-process (``workers=1`` without a checkpoint).
    """
    name = "custom-" + program_fingerprint(program)[:12]
    _PROGRAM_CACHE[name] = program
    _PROGRAM_BUILDERS.setdefault(name, lambda: program)
    return name


def program_fingerprint(program: MatlibProgram) -> str:
    """Content hash over the program's op records (not object identity)."""
    payload = [[op.name, op.kind.value, list(op.inputs), op.output,
                [list(shape) for shape in op.shapes], list(op.out_shape),
                op.dtype, op.flops, op.kernel]
               for op in program.ops]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignPointSpec:
    """One fully-determined design-point evaluation.

    ``codegen_level="auto"`` resolves to :func:`default_level_for` at
    evaluation time; ``lmul`` applies to vector points and
    ``sync_granularity`` to systolic points (both must be left at their
    defaults elsewhere — expansion never emits invalid combinations).
    """

    design_point: str
    codegen_level: str = "auto"
    program: str = "iteration"
    fidelity: str = "trace"
    lmul: int = 1
    sync_granularity: Optional[int] = None
    solve_iterations: int = 10

    episode_kind: ClassVar[str] = "design_point"

    def __post_init__(self) -> None:
        if self.fidelity not in FIDELITIES:
            raise ValueError("unknown fidelity {!r}; options: {}".format(
                self.fidelity, ", ".join(FIDELITIES)))
        if self.lmul < 1:
            raise ValueError("lmul must be >= 1")
        if self.sync_granularity is not None and self.sync_granularity < 1:
            raise ValueError("sync_granularity must be >= 1")
        if self.solve_iterations < 1:
            raise ValueError("solve_iterations must be >= 1")

    def resolved_level(self) -> str:
        if self.codegen_level != "auto":
            return self.codegen_level
        return default_level_for(get_design_point(self.design_point))

    def cell_key(self) -> Tuple:
        """The aggregate cell; follows :data:`DESIGN_CELL_AXES`.

        Every axis distinguishes cells (there is no repetition axis — a
        design-point evaluation is deterministic), so one cell holds one
        result.
        """
        point = get_design_point(self.design_point)
        return (self.program, self.design_point, point.category,
                self.resolved_level(), self.lmul, self.sync_granularity,
                self.fidelity)

    def label(self) -> str:
        label = "{}/{}@{}".format(self.program, self.design_point,
                                  self.resolved_level())
        if self.lmul != 1:
            label += "/m{}".format(self.lmul)
        if self.sync_granularity is not None:
            label += "/g{}".format(self.sync_granularity)
        return label + "/" + self.fidelity

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SPEC_SCHEMA_VERSION,
            "episode_kind": "design_point",
            "design_point": self.design_point,
            "codegen_level": self.codegen_level,
            "program": self.program,
            "fidelity": self.fidelity,
            "lmul": self.lmul,
            "sync_granularity": self.sync_granularity,
            "solve_iterations": self.solve_iterations,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "DesignPointSpec":
        _check_schema_version(payload, "design-point spec")
        payload = dict(payload)
        payload.pop("schema_version", None)
        kind = payload.pop("episode_kind", "design_point")
        if kind != "design_point":
            raise ValueError("not a design_point spec: kind {!r}".format(kind))
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError("unknown design-point fields: {}".format(
                ", ".join(sorted(unknown))))
        return cls(**payload)


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignPointResult:
    """The metrics of one design-point evaluation.

    Carries the resolved spec axes plus the timing metrics the paper's
    figures are built from.
    """

    program: str
    design_point: str
    category: str
    codegen_level: str
    fidelity: str
    lmul: int
    sync_granularity: Optional[int]
    solve_iterations: int
    area_mm2: float
    total_cycles: float
    cycles_per_solve: float
    solve_hz_at_500mhz: float
    instruction_count: int
    flops: int
    fences: int
    dram_transfers: int
    rocc_instructions: int
    cycles_by_kernel: Dict[str, float]
    cycles_by_category: Dict[str, float]

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "design_point",
            "program": self.program,
            "design_point": self.design_point,
            "category": self.category,
            "codegen_level": self.codegen_level,
            "fidelity": self.fidelity,
            "lmul": self.lmul,
            "sync_granularity": self.sync_granularity,
            "solve_iterations": self.solve_iterations,
            "area_mm2": self.area_mm2,
            "total_cycles": self.total_cycles,
            "cycles_per_solve": self.cycles_per_solve,
            "solve_hz_at_500mhz": self.solve_hz_at_500mhz,
            "instruction_count": self.instruction_count,
            "flops": self.flops,
            "fences": self.fences,
            "dram_transfers": self.dram_transfers,
            "rocc_instructions": self.rocc_instructions,
            "cycles_by_kernel": dict(self.cycles_by_kernel),
            "cycles_by_category": dict(self.cycles_by_category),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "DesignPointResult":
        return cls(
            program=payload["program"],
            design_point=payload["design_point"],
            category=payload["category"],
            codegen_level=payload["codegen_level"],
            fidelity=payload["fidelity"],
            lmul=int(payload["lmul"]),
            sync_granularity=(None if payload["sync_granularity"] is None
                              else int(payload["sync_granularity"])),
            solve_iterations=int(payload["solve_iterations"]),
            area_mm2=payload["area_mm2"],
            total_cycles=payload["total_cycles"],
            cycles_per_solve=payload["cycles_per_solve"],
            solve_hz_at_500mhz=payload["solve_hz_at_500mhz"],
            instruction_count=int(payload["instruction_count"]),
            flops=int(payload["flops"]),
            fences=int(payload["fences"]),
            dram_transfers=int(payload["dram_transfers"]),
            rocc_instructions=int(payload["rocc_instructions"]),
            cycles_by_kernel={str(k): v for k, v
                              in payload["cycles_by_kernel"].items()},
            cycles_by_category={str(k): v for k, v
                                in payload["cycles_by_category"].items()})


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def clear_result_cache() -> None:
    """No-op, kept for callers that cleared the former evaluation memo.

    :func:`evaluate_design_point` keeps no results, so every evaluation
    already pays full cost.
    """


def evaluate_design_point(spec: DesignPointSpec) -> DesignPointResult:
    """Evaluate one grid point at its requested fidelity."""
    program = resolve_program(spec.program)
    point = get_design_point(spec.design_point)
    level = spec.resolved_level()
    if level not in OPTIMIZATION_LEVELS[point.category]:
        raise ValueError("level {!r} is not valid for {} point {!r}".format(
            level, point.category, point.name))

    if spec.fidelity == "model":
        report, counters = model_report(
            program, point, level, lmul=spec.lmul,
            sync_granularity=spec.sync_granularity, with_counters=True)
    else:
        flow = CodegenFlow(lmul=spec.lmul)
        compiled = flow.compile(program, point, level,
                                sync_granularity=spec.sync_granularity)
        report = compiled.report
        counters = stream_counters(compiled.stream)

    # Multiply, then divide: the float expressions the pinned Figure 10
    # rows were recorded with.
    cycles_per_solve = report.total_cycles * spec.solve_iterations
    return DesignPointResult(
        program=spec.program,
        design_point=spec.design_point,
        category=point.category,
        codegen_level=level,
        fidelity=spec.fidelity,
        lmul=spec.lmul,
        sync_granularity=spec.sync_granularity,
        solve_iterations=spec.solve_iterations,
        area_mm2=point.area_mm2,
        total_cycles=report.total_cycles,
        cycles_per_solve=cycles_per_solve,
        solve_hz_at_500mhz=500e6 / cycles_per_solve,
        instruction_count=report.instruction_count,
        flops=report.flops,
        fences=counters.fences,
        dram_transfers=counters.dram_transfers,
        rocc_instructions=counters.rocc_instructions,
        cycles_by_kernel=dict(report.cycles_by_kernel),
        cycles_by_category=dict(report.cycles_by_category))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass
class DesignCellAggregate:
    """One design cell: a deterministic evaluation, counted per repetition.

    Unlike HIL cells there is no seed axis — re-running a cell must produce
    the identical result, so the cell stores the first result and only
    counts repetitions.
    """

    key: Tuple
    episodes: int = 0
    result: Optional[DesignPointResult] = None

    def add(self, result: DesignPointResult) -> None:
        self.episodes += 1
        if self.result is None:
            self.result = result

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = dict(zip(DESIGN_CELL_AXES, self.key))
        row["episodes"] = self.episodes
        if self.result is not None:
            row.update({
                "area_mm2": self.result.area_mm2,
                "total_cycles": self.result.total_cycles,
                "cycles_per_solve": self.result.cycles_per_solve,
                "solve_hz_at_500mhz": self.result.solve_hz_at_500mhz,
                "instruction_count": self.result.instruction_count,
                "flops": self.result.flops,
                "fences": self.result.fences,
                "dram_transfers": self.result.dram_transfers,
                "rocc_instructions": self.result.rocc_instructions,
            })
        return row


# ---------------------------------------------------------------------------
# The kind
# ---------------------------------------------------------------------------

class DesignPointKind(EpisodeKind):
    """Design-space exploration episodes (solver-less)."""

    name = "design_point"
    cell_axes = DESIGN_CELL_AXES

    def validate(self, campaign) -> None:
        for axis in ("programs", "codegen_levels", "fidelities",
                     "sync_granularities", "lmuls"):
            if not getattr(campaign, axis):
                raise ValueError("campaign axis {!r} is empty".format(axis))
        for name in campaign.programs:
            if name not in _PROGRAM_BUILDERS:
                raise ValueError(
                    "unknown program {!r}; registered: {}".format(
                        name, ", ".join(sorted(_PROGRAM_BUILDERS))))
        for point_name in campaign.design_points:
            try:
                get_design_point(point_name)
            except KeyError as error:
                raise ValueError(str(error)) from None
        all_levels = {level for levels in OPTIMIZATION_LEVELS.values()
                      for level in levels}
        for level in campaign.codegen_levels:
            if level != "auto" and level not in all_levels:
                raise ValueError(
                    "unknown codegen level {!r}; options: auto, {}".format(
                        level, ", ".join(sorted(all_levels))))
        for fidelity in campaign.fidelities:
            if fidelity not in FIDELITIES:
                raise ValueError("unknown fidelity {!r}; options: {}".format(
                    fidelity, ", ".join(FIDELITIES)))
        for lmul in campaign.lmuls:
            if lmul < 1:
                raise ValueError("lmuls must be >= 1")
        for granularity in campaign.sync_granularities:
            if granularity is not None and granularity < 1:
                raise ValueError("sync_granularities must be >= 1 (or None)")
        if campaign.solve_iterations < 1:
            raise ValueError("solve_iterations must be >= 1")
        if not self.expand(campaign):
            raise ValueError(
                "design campaign {!r} expands to zero episodes (every "
                "level/point combination was invalid)".format(campaign.name))

    def expand(self, campaign) -> List[DesignPointSpec]:
        """Expansion order: ``program > design_point > codegen_level > lmul
        > sync_granularity > fidelity``.

        Combinations that don't type-check are skipped rather than errors:
        a named level only applies to points of its category, ``lmul != 1``
        only to vector points, and ``sync_granularity`` only to systolic
        points — so one campaign can sweep a heterogeneous catalog.
        """
        points = (tuple(campaign.design_points) if campaign.design_points
                  else tuple(p.name for p in list_design_points()))
        specs: List[DesignPointSpec] = []
        for (program, point_name, level, lmul, granularity, fidelity
             ) in itertools.product(
                campaign.programs, points, campaign.codegen_levels,
                campaign.lmuls, campaign.sync_granularities,
                campaign.fidelities):
            point = get_design_point(point_name)
            resolved = (default_level_for(point) if level == "auto"
                        else level)
            if resolved not in OPTIMIZATION_LEVELS[point.category]:
                continue
            if lmul != 1 and point.category != "vector":
                continue
            if granularity is not None and point.category != "systolic":
                continue
            specs.append(DesignPointSpec(
                design_point=point_name, codegen_level=level,
                program=program, fidelity=fidelity, lmul=lmul,
                sync_granularity=granularity,
                solve_iterations=campaign.solve_iterations))
        return specs

    def describe(self, campaign) -> str:
        points = (len(campaign.design_points) if campaign.design_points
                  else len(list_design_points()))
        return ("campaign {!r}: {} design-point episodes = {} programs x "
                "{} points x {} levels x {} lmuls x {} syncs x {} fidelities "
                "(invalid combos skipped)"
                .format(campaign.name, self.size(campaign),
                        len(campaign.programs), points,
                        len(campaign.codegen_levels), len(campaign.lmuls),
                        len(campaign.sync_granularities),
                        len(campaign.fidelities)))

    def owns_result(self, result) -> bool:
        return isinstance(result, DesignPointResult)

    def result_to_dict(self, result: DesignPointResult) -> Dict[str, object]:
        return result.to_dict()

    def result_from_dict(self, payload: Dict[str, object]
                         ) -> DesignPointResult:
        return DesignPointResult.from_dict(payload)

    def new_cell(self, key: Tuple) -> DesignCellAggregate:
        return DesignCellAggregate(key=key)


register_episode_kind(DesignPointKind())


# ---------------------------------------------------------------------------
# Thin helpers the experiment wrappers route through
# ---------------------------------------------------------------------------

def compile_via_fleet(specs: Sequence[DesignPointSpec], workers: int = 1,
                      **kwargs) -> List[DesignPointResult]:
    """Run specs through the fleet engine, results in spec order."""
    from .workers import run_campaign
    outcome = run_campaign(list(specs), workers=workers, **kwargs)
    return list(outcome.results)


def spec_from_result(result: DesignPointResult,
                     fidelity: Optional[str] = None) -> DesignPointSpec:
    """Rebuild the (resolved-level) spec that produced a result."""
    return DesignPointSpec(
        design_point=result.design_point,
        codegen_level=result.codegen_level,
        program=result.program,
        fidelity=fidelity if fidelity is not None else result.fidelity,
        lmul=result.lmul,
        sync_granularity=result.sync_granularity,
        solve_iterations=result.solve_iterations)


def promote_frontier(model_results: Sequence[DesignPointResult],
                     workers: int = 1) -> List[DesignPointResult]:
    """Re-evaluate a model sweep's Pareto frontier at trace fidelity.

    The wide sweep runs at model fidelity; the (area, solve-rate) frontier
    — the points a designer would actually pick — is promoted to the
    cycle-exact trace path for confirmation.
    """
    from ..experiments.pareto_experiments import pareto_frontier
    frontier = pareto_frontier([(r.area_mm2, r.solve_hz_at_500mhz)
                                for r in model_results])
    specs = [spec_from_result(model_results[index], fidelity="trace")
             for index in frontier]
    return compile_via_fleet(specs, workers=workers)
