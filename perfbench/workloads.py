"""The benchmark's three workloads, each one closed-loop fleet campaign.

Every workload is built from the workload seed through the public
``repro.fleet`` API and run to completion from one process:

* ``waypoint-mixed`` -- the mixed waypoint grid (easy+medium x 8 scenario
  seeds x 100/250 MHz, vector SoC, CrazyFlie @ 100 Hz), in-process, one
  wide batch group;
* ``recovery-durable`` -- the Fig. 17 recovery suite over three magnitude
  rungs with seeded sensor noise, on the checkpointed, supervised path
  with two worker processes;
* ``dse-frontier`` -- a model-fidelity design-point sweep over 15 program
  variants whose MPC horizons are drawn from the seed, followed by
  ``promote_frontier`` at trace fidelity.

A workload's ``outcomes`` are the discrete results the benchmark checks
against ``reference.json`` (see ``record_reference.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.drone import all_variants
from repro.fleet import CampaignSpec, EpisodeFactory, run_campaign
from repro.fleet.design_point import (clear_result_cache, promote_frontier,
                                      register_program_variant,
                                      resolve_program)
from repro.fleet.durable import journal_path
from repro.hil.loop import build_variant_problem
from repro.tinympc import build_iteration_program

# HIL workloads have this many recorded input sets; the seed picks one.
SLOTS = 32

# A design point "succeeds" when its modelled solve rate at the paper's
# 500 MHz reference clock sustains kilohertz MPC.
DSE_SUCCESS_HZ = 1000.0

# dse-frontier draws one horizon per bin for every drone variant, so any
# seed sweeps short to long horizons and the total work stays near-constant.
HORIZON_BINS = ((6, 7, 8), (10, 11, 12), (14, 15, 16), (18, 19, 20),
                (22, 23, 24))


def digest(value) -> str:
    """Short content digest of one episode's discrete outcome."""
    blob = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:6]


@dataclass
class CampaignRun:
    """What one timed campaign produced, as the benchmark sees it."""

    seconds: float
    episodes: int
    # Discrete outcome digests in campaign order; None marks an episode
    # that returned no result (quarantined).
    outcomes: List[Optional[str]]
    successes: int                      # sim_success_rate numerator
    success_total: int                  # sim_success_rate denominator
    extra_failures: int = 0             # e.g. frontier model != trace
    max_rel_err: float = 0.0
    stats: object = None                # SchedulerStats
    report: object = None               # SupervisorReport (durable path)
    journal_bytes: int = 0


class _HilWorkload:
    """Shared by the HIL workloads, whose seed picks one of SLOTS inputs."""

    slot: int
    spec: CampaignSpec

    def setup(self) -> None:
        factory = EpisodeFactory()
        for index, spec in enumerate(self.spec.expand()):
            factory.build(spec, episode_id=index)

    def recorded(self, table: Dict[str, str]) -> Optional[List[str]]:
        """The recorded outcome digests for this seed's slot."""
        digests = table.get(str(self.slot))
        return None if digests is None else digests.split(",")


class WaypointMixed(_HilWorkload):
    name = "waypoint-mixed"
    workers = 1

    def __init__(self, seed: int) -> None:
        self.slot = seed % SLOTS
        base = 8 * self.slot
        self.spec = CampaignSpec(
            name=self.name, difficulties=("easy", "medium"),
            seeds=tuple(range(base, base + 8)), implementations=("vector",),
            frequencies_mhz=(100.0, 250.0), variants=("CrazyFlie",),
            control_rates_hz=(100.0,))

    def run(self) -> CampaignRun:
        start = time.perf_counter()
        outcome = run_campaign(self.spec, workers=1)
        seconds = time.perf_counter() - start
        outcomes = [None if r is None else digest(
            [bool(r.success), bool(r.crashed), r.flight_time_s,
             [int(i) for i in r.solve_iterations]])
            for r in outcome.results]
        return CampaignRun(
            seconds=seconds, episodes=len(outcome.episodes),
            outcomes=outcomes,
            successes=sum(1 for r in outcome.results if r and r.success),
            success_total=len(outcome.episodes), stats=outcome.stats)


class RecoveryDurable(_HilWorkload):
    name = "recovery-durable"
    workers = 2

    def __init__(self, seed: int, scratch: str) -> None:
        self.slot = seed % SLOTS
        self.scratch = scratch
        self.spec = CampaignSpec(
            name=self.name, episode_kind="recovery",
            implementations=("scalar", "vector"),
            disturbance_scales=(0.5, 1.0, 2.0), sensor_noise_std=0.001,
            sensor_fault_seed=self.slot)

    def run(self) -> CampaignRun:
        checkpoint_dir = tempfile.mkdtemp(prefix="recovery-", dir=self.scratch)
        try:
            start = time.perf_counter()
            outcome = run_campaign(self.spec, workers=self.workers,
                                   checkpoint_dir=checkpoint_dir)
            seconds = time.perf_counter() - start
            journal_bytes = os.path.getsize(journal_path(outcome.run_dir))
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        outcomes = [None if r is None else digest(
            [bool(r.recovered), r.time_to_recovery is None])
            for r in outcome.results]
        return CampaignRun(
            seconds=seconds, episodes=len(outcome.episodes),
            outcomes=outcomes,
            successes=sum(1 for r in outcome.results if r and r.recovered),
            success_total=len(outcome.episodes), stats=outcome.stats,
            report=outcome.report, journal_bytes=journal_bytes)


def draw_horizons(seed: int) -> Dict[str, List[int]]:
    """Per drone variant, one MPC horizon from each of HORIZON_BINS."""
    rng = random.Random("dse-frontier:{}".format(seed))
    return {variant: [rng.choice(choices) for choices in HORIZON_BINS]
            for variant in sorted(all_variants())}


def program_name(variant: str, horizon: int) -> str:
    return "{}-N{}".format(variant.lower(), horizon)


def register_programs(horizons: Dict[str, List[int]]) -> List[str]:
    """Register every (variant, horizon) program; returns their names."""
    variants = all_variants()
    names = []
    for variant, values in horizons.items():
        for horizon in values:
            name = program_name(variant, horizon)

            def builder(params=variants[variant], horizon=horizon):
                return build_iteration_program(
                    build_variant_problem(params, horizon=horizon))
            register_program_variant(name, builder)
            names.append(name)
    return names


def design_campaign(programs) -> CampaignSpec:
    return CampaignSpec(
        name="dse-frontier", episode_kind="design_point",
        programs=tuple(programs), fidelities=("model",),
        lmuls=(1, 2, 4, 8), sync_granularities=(None, 1, 2, 4, 8, 16, 32))


def point_key(result) -> tuple:
    return (result.program, result.design_point, result.codegen_level,
            result.lmul, result.sync_granularity)


class DseFrontier:
    name = "dse-frontier"
    workers = 1

    def __init__(self, seed: int) -> None:
        self.programs = register_programs(draw_horizons(seed))
        self.spec = design_campaign(self.programs)

    def setup(self) -> None:
        for name in self.programs:
            resolve_program(name)
        self.spec.expand()

    def run(self) -> CampaignRun:
        # Every timed sweep pays full cost: the in-process memo is dropped.
        clear_result_cache()
        start = time.perf_counter()
        sweep = run_campaign(self.spec, workers=1)
        promoted = promote_frontier(sweep.results)
        seconds = time.perf_counter() - start

        model = {point_key(r): r for r in sweep.results if r is not None}
        mismatched = 0
        max_rel_err = 0.0
        for trace in promoted:
            reference = model.get(point_key(trace))
            if reference is None:
                mismatched += 1
                continue
            rel_err = (abs(trace.total_cycles - reference.total_cycles)
                       / reference.total_cycles)
            max_rel_err = max(max_rel_err, rel_err)
            if (rel_err != 0.0 or trace.instruction_count
                    != reference.instruction_count):
                mismatched += 1
        outcomes = [None if r is None else digest(
            [r.total_cycles, int(r.instruction_count)])
            for r in sweep.results]
        return CampaignRun(
            seconds=seconds, episodes=len(sweep.results) + len(promoted),
            outcomes=outcomes,
            successes=sum(1 for r in sweep.results
                          if r and r.solve_hz_at_500mhz >= DSE_SUCCESS_HZ),
            success_total=len(sweep.results), extra_failures=mismatched,
            max_rel_err=max_rel_err, stats=sweep.stats)

    def recorded(self, table: Dict[str, str]) -> Optional[List[str]]:
        """The recorded digests of this seed's programs, in campaign order."""
        digests: List[str] = []
        for name in self.programs:
            if name not in table:
                return None
            digests.extend(table[name].split(","))
        return digests


def make_workload(name: str, seed: int, scratch: str):
    """The named workload's inputs for ``seed``; ``scratch`` holds the
    checkpoint directories of the durable workload."""
    if name == WaypointMixed.name:
        return WaypointMixed(seed)
    if name == RecoveryDurable.name:
        return RecoveryDurable(seed, scratch)
    if name == DseFrontier.name:
        return DseFrontier(seed)
    raise ValueError("unknown workload {!r}".format(name))
