"""Streaming campaign aggregation: bounded memory over unbounded fleets.

A fleet campaign can fly tens of thousands of episodes; holding every
trajectory (or even every :class:`~repro.hil.metrics.ScenarioResult`) in
memory defeats the point of sharding.  :class:`FleetAggregator` consumes
results one at a time, keeps only O(cells x cap) scalars, and still reports
success rates, tracking-error percentiles, power statistics, and solve-time
latency percentiles per aggregate *cell* (one configuration of every axis
except the scenario seed).  Disturbance-recovery episodes
(:class:`~repro.drone.disturbance.RecoveryResult`) stream into their own
per-category cells (:class:`RecoveryCellAggregate`): recovery rate,
time-to-recovery percentiles, peak-deviation percentiles, and the maximum
recovered magnitude observed on the campaign's magnitude ladder.

Per-metric sample sets are bounded by deterministic stride decimation
(:class:`ReservoirSamples`): once a cell's sample list exceeds its cap, every
other retained sample is dropped and the keep-stride doubles.  Percentiles
over a decimated set are approximations with bounded, deterministic error;
campaigns smaller than the cap (the common case for per-cell metrics) are
exact.  Aggregators merge across campaign chunks with
:meth:`FleetAggregator.merge`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..drone.disturbance import RecoveryResult
from ..hil.metrics import ScenarioResult
from .campaign import CELL_AXES, RECOVERY_CELL_AXES
from .kinds import episode_kind_names, get_episode_kind, kind_for_result

__all__ = ["ReservoirSamples", "CellAggregate", "RecoveryCellAggregate",
           "FleetAggregator"]


class ReservoirSamples:
    """Bounded sample list with deterministic stride decimation."""

    __slots__ = ("cap", "stride", "values", "_skip", "count")

    def __init__(self, cap: int = 4096) -> None:
        if cap < 2:
            raise ValueError("cap must be at least 2")
        self.cap = cap
        self.stride = 1          # keep every stride-th offered sample
        self.values: List[float] = []
        self._skip = 0           # offered samples to skip before the next keep
        self.count = 0           # total samples offered

    def add(self, value: float) -> None:
        self.count += 1
        if self._skip > 0:
            self._skip -= 1
            return
        self.values.append(float(value))
        self._skip = self.stride - 1
        if len(self.values) > self.cap:
            self._coarsen()

    def _coarsen(self) -> None:
        self.values = self.values[::2]
        self.stride *= 2

    def extend(self, values) -> None:
        for value in values:
            self.add(value)

    def percentile(self, q: float) -> float:
        if not self.values:
            return float("nan")
        return float(np.percentile(self.values, q))

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering; exact inverse of :meth:`from_dict`.

        The durable campaign journal (:mod:`repro.fleet.durable`) persists
        per-chunk aggregates through this pair, so the retained samples must
        round-trip bit-for-bit (JSON floats serialize via ``repr`` and parse
        back to the identical double).
        """
        return {"cap": self.cap, "stride": self.stride,
                "values": list(self.values), "skip": self._skip,
                "count": self.count}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ReservoirSamples":
        samples = cls(cap=int(payload["cap"]))
        samples.stride = int(payload["stride"])
        samples.values = [float(v) for v in payload["values"]]
        samples._skip = int(payload["skip"])
        samples.count = int(payload["count"])
        return samples

    def merge(self, other: "ReservoirSamples") -> "ReservoirSamples":
        """Fold another reservoir in, aligning strides before concatenating."""
        mine, theirs = self, other
        values = list(theirs.values)
        stride = theirs.stride
        while stride < mine.stride:
            values = values[::2]
            stride *= 2
        while mine.stride < stride:
            mine._coarsen()
        mine.values.extend(values)
        mine.count += theirs.count
        while len(mine.values) > mine.cap:
            mine._coarsen()
        return mine


@dataclass
class CellAggregate:
    """Running statistics for one aggregate cell."""

    key: Tuple
    sample_cap: int = 4096
    episodes: int = 0
    successes: int = 0
    crashes: int = 0
    sum_actuation_power: float = 0.0
    sum_soc_power: float = 0.0
    sum_total_power: float = 0.0
    sum_flight_time: float = 0.0
    sum_iterations: int = 0
    solve_count: int = 0
    tracking_errors: ReservoirSamples = field(default=None)
    total_powers: ReservoirSamples = field(default=None)
    solve_times: ReservoirSamples = field(default=None)

    def __post_init__(self) -> None:
        if self.tracking_errors is None:
            self.tracking_errors = ReservoirSamples(self.sample_cap)
        if self.total_powers is None:
            self.total_powers = ReservoirSamples(self.sample_cap)
        if self.solve_times is None:
            self.solve_times = ReservoirSamples(self.sample_cap)

    def add(self, result: ScenarioResult) -> None:
        self.episodes += 1
        self.successes += 1 if result.success else 0
        self.crashes += 1 if result.crashed else 0
        self.sum_actuation_power += result.actuation_power_w
        self.sum_soc_power += result.soc_power_w
        self.sum_total_power += result.total_power_w
        self.sum_flight_time += result.flight_time_s
        self.sum_iterations += int(sum(result.solve_iterations))
        self.solve_count += len(result.solve_iterations)
        self.tracking_errors.add(result.final_distance)
        self.total_powers.add(result.total_power_w)
        self.solve_times.extend(result.solve_times)

    def merge(self, other: "CellAggregate") -> "CellAggregate":
        if other.key != self.key:
            raise ValueError("cannot merge cells with different keys")
        self.episodes += other.episodes
        self.successes += other.successes
        self.crashes += other.crashes
        self.sum_actuation_power += other.sum_actuation_power
        self.sum_soc_power += other.sum_soc_power
        self.sum_total_power += other.sum_total_power
        self.sum_flight_time += other.sum_flight_time
        self.sum_iterations += other.sum_iterations
        self.solve_count += other.solve_count
        self.tracking_errors.merge(other.tracking_errors)
        self.total_powers.merge(other.total_powers)
        self.solve_times.merge(other.solve_times)
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": list(self.key), "sample_cap": self.sample_cap,
            "episodes": self.episodes, "successes": self.successes,
            "crashes": self.crashes,
            "sum_actuation_power": self.sum_actuation_power,
            "sum_soc_power": self.sum_soc_power,
            "sum_total_power": self.sum_total_power,
            "sum_flight_time": self.sum_flight_time,
            "sum_iterations": self.sum_iterations,
            "solve_count": self.solve_count,
            "tracking_errors": self.tracking_errors.to_dict(),
            "total_powers": self.total_powers.to_dict(),
            "solve_times": self.solve_times.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CellAggregate":
        return cls(
            key=tuple(payload["key"]), sample_cap=int(payload["sample_cap"]),
            episodes=int(payload["episodes"]),
            successes=int(payload["successes"]),
            crashes=int(payload["crashes"]),
            sum_actuation_power=float(payload["sum_actuation_power"]),
            sum_soc_power=float(payload["sum_soc_power"]),
            sum_total_power=float(payload["sum_total_power"]),
            sum_flight_time=float(payload["sum_flight_time"]),
            sum_iterations=int(payload["sum_iterations"]),
            solve_count=int(payload["solve_count"]),
            tracking_errors=ReservoirSamples.from_dict(
                payload["tracking_errors"]),
            total_powers=ReservoirSamples.from_dict(payload["total_powers"]),
            solve_times=ReservoirSamples.from_dict(payload["solve_times"]))

    @property
    def success_rate(self) -> float:
        return self.successes / self.episodes if self.episodes else 0.0

    def as_row(self) -> Dict[str, object]:
        # CELL_AXES is the documented column order of EpisodeSpec.cell_key().
        row: Dict[str, object] = dict(zip(CELL_AXES, self.key))
        episodes = max(self.episodes, 1)
        row.update({
            "episodes": self.episodes,
            "success_rate": self.success_rate,
            "crash_rate": self.crashes / episodes,
            "tracking_error_p50_m": self.tracking_errors.percentile(50.0),
            "tracking_error_p90_m": self.tracking_errors.percentile(90.0),
            "solve_time_p50_ms": self.solve_times.percentile(50.0) * 1e3,
            "solve_time_p99_ms": self.solve_times.percentile(99.0) * 1e3,
            "mean_actuation_power_w": self.sum_actuation_power / episodes,
            "mean_soc_power_w": self.sum_soc_power / episodes,
            "mean_total_power_w": self.sum_total_power / episodes,
            "total_power_p90_w": self.total_powers.percentile(90.0),
            "mean_iterations": (self.sum_iterations / self.solve_count
                                if self.solve_count else 0.0),
        })
        return row


@dataclass
class RecoveryCellAggregate:
    """Running recovery statistics for one disturbance cell.

    A cell is one configuration of :data:`RECOVERY_CELL_AXES` — the
    waypoint axes plus disturbance category and kind; directions, magnitude
    ladder rungs, start times, and seeds repeat within a cell.  Tracks the
    recovery rate, bounded reservoirs for time-to-recovery and peak
    deviation, and the magnitude ladder extremes: the largest magnitude the
    controller recovered from and the smallest it failed on.
    """

    key: Tuple
    sample_cap: int = 4096
    episodes: int = 0
    recoveries: int = 0
    max_recovered_magnitude: float = 0.0
    min_unrecovered_magnitude: float = float("inf")
    times_to_recovery: ReservoirSamples = field(default=None)
    max_deviations: ReservoirSamples = field(default=None)

    def __post_init__(self) -> None:
        if self.times_to_recovery is None:
            self.times_to_recovery = ReservoirSamples(self.sample_cap)
        if self.max_deviations is None:
            self.max_deviations = ReservoirSamples(self.sample_cap)

    def add(self, result: RecoveryResult) -> None:
        self.episodes += 1
        magnitude = (result.disturbance.magnitude
                     if result.disturbance is not None else float("nan"))
        if result.recovered:
            self.recoveries += 1
            if result.time_to_recovery is not None:
                self.times_to_recovery.add(result.time_to_recovery)
            if magnitude == magnitude:     # not NaN
                self.max_recovered_magnitude = max(
                    self.max_recovered_magnitude, magnitude)
        elif magnitude == magnitude:
            self.min_unrecovered_magnitude = min(
                self.min_unrecovered_magnitude, magnitude)
        if np.isfinite(result.max_deviation):
            self.max_deviations.add(result.max_deviation)

    def merge(self, other: "RecoveryCellAggregate") -> "RecoveryCellAggregate":
        if other.key != self.key:
            raise ValueError("cannot merge cells with different keys")
        self.episodes += other.episodes
        self.recoveries += other.recoveries
        self.max_recovered_magnitude = max(self.max_recovered_magnitude,
                                           other.max_recovered_magnitude)
        self.min_unrecovered_magnitude = min(self.min_unrecovered_magnitude,
                                             other.min_unrecovered_magnitude)
        self.times_to_recovery.merge(other.times_to_recovery)
        self.max_deviations.merge(other.max_deviations)
        return self

    def to_dict(self) -> Dict[str, object]:
        # ``min_unrecovered_magnitude`` idles at +inf, which RFC 8259 JSON
        # cannot carry — encode it as None and restore on load.
        return {
            "key": list(self.key), "sample_cap": self.sample_cap,
            "episodes": self.episodes, "recoveries": self.recoveries,
            "max_recovered_magnitude": self.max_recovered_magnitude,
            "min_unrecovered_magnitude": (
                self.min_unrecovered_magnitude
                if np.isfinite(self.min_unrecovered_magnitude) else None),
            "times_to_recovery": self.times_to_recovery.to_dict(),
            "max_deviations": self.max_deviations.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RecoveryCellAggregate":
        unrecovered = payload["min_unrecovered_magnitude"]
        return cls(
            key=tuple(payload["key"]), sample_cap=int(payload["sample_cap"]),
            episodes=int(payload["episodes"]),
            recoveries=int(payload["recoveries"]),
            max_recovered_magnitude=float(payload["max_recovered_magnitude"]),
            min_unrecovered_magnitude=(float("inf") if unrecovered is None
                                       else float(unrecovered)),
            times_to_recovery=ReservoirSamples.from_dict(
                payload["times_to_recovery"]),
            max_deviations=ReservoirSamples.from_dict(
                payload["max_deviations"]))

    @property
    def recovery_rate(self) -> float:
        return self.recoveries / self.episodes if self.episodes else 0.0

    def as_row(self) -> Dict[str, object]:
        # RECOVERY_CELL_AXES is the documented column order of
        # EpisodeSpec.cell_key() for recovery episodes.  Non-finite values
        # (no recovery observed in the cell, every ladder rung recovered)
        # become None so campaign JSON artifacts stay RFC 8259 parseable.
        def finite(value: float) -> Optional[float]:
            return float(value) if np.isfinite(value) else None

        row: Dict[str, object] = dict(zip(RECOVERY_CELL_AXES, self.key))
        row.update({
            "episodes": self.episodes,
            "recovery_rate": self.recovery_rate,
            "ttr_p50_s": finite(self.times_to_recovery.percentile(50.0)),
            "ttr_p90_s": finite(self.times_to_recovery.percentile(90.0)),
            "max_deviation_p50_m": finite(self.max_deviations.percentile(50.0)),
            "max_deviation_p90_m": finite(self.max_deviations.percentile(90.0)),
            "max_recovered_magnitude": (self.max_recovered_magnitude
                                        if self.recoveries else None),
            "min_unrecovered_magnitude": finite(self.min_unrecovered_magnitude),
        })
        return row


def _sorted_keys(cells: Dict[Tuple, object]) -> List[Tuple]:
    return sorted(cells, key=lambda k: tuple(map(str, k)))


class FleetAggregator:
    """Streaming aggregation of campaign results into per-cell statistics.

    Results stream into one cell map per *episode kind*
    (:mod:`repro.fleet.kinds`): waypoint episodes
    (:class:`ScenarioResult`), disturbance-recovery episodes
    (:class:`RecoveryResult`), and design-point evaluations
    (:class:`~repro.fleet.design_point.DesignPointResult`) each fold into
    their kind's per-cell aggregate; :meth:`rows` reports the waypoint
    cells, :meth:`recovery_rows` the recovery cells, :meth:`design_rows`
    the design cells, and :meth:`overall` summarizes all of them.  A newly
    registered kind gets its cell map, serialization, and row reporting for
    free via its :class:`~repro.fleet.kinds.EpisodeKind` hooks.
    """

    def __init__(self, sample_cap: int = 4096) -> None:
        self.sample_cap = sample_cap
        self._kind_cells: Dict[str, Dict[Tuple, object]] = {}
        # Attribute aliases for the built-in kinds (dict identity is stable:
        # cells_for() hands out the same dict it stores).
        self.cells: Dict[Tuple, CellAggregate] = self.cells_for("waypoint")
        self.recovery_cells: Dict[Tuple, RecoveryCellAggregate] = (
            self.cells_for("recovery"))
        self.design_cells: Dict[Tuple, object] = self.cells_for("design_point")

    def cells_for(self, kind_name: str) -> Dict[Tuple, object]:
        """The cell map for one episode kind (created on first use)."""
        return self._kind_cells.setdefault(kind_name, {})

    def add(self, result, key: Optional[Tuple] = None) -> None:
        """Consume one episode result of any registered kind.

        ``key`` is the aggregate cell (the spec's ``cell_key()``); when the
        result does not come from a campaign, the kind derives a fallback
        key from the result's own fields (axes the result does not carry are
        left neutral).
        """
        kind = kind_for_result(result)
        if key is None:
            key = kind.result_cell_key(result)
        cells = self.cells_for(kind.name)
        cell = cells.get(key)
        if cell is None:
            cell = kind.new_cell(key, self.sample_cap)
            cells[key] = cell
        cell.add(result)

    def merge(self, other: "FleetAggregator") -> "FleetAggregator":
        for kind_name, theirs in other._kind_cells.items():
            mine = self.cells_for(kind_name)
            for key, cell in theirs.items():
                if key in mine:
                    mine[key].merge(cell)
                else:
                    mine[key] = cell
        return self

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering of the full aggregator state.

        Cell keys are tuples of mixed scalars; they serialize as lists (the
        int/float/str distinction survives JSON) and the cells themselves in
        sorted-key order so equal aggregators serialize to equal bytes.
        Each kind's cells land under its ``cells_field`` ("cells",
        "recovery_cells", "design_cells", ...).  The durable journal
        persists one of these per completed chunk in memory-bounded mode;
        :meth:`from_dict` + :meth:`merge` reassemble the campaign aggregate
        on resume.
        """
        payload: Dict[str, object] = {"sample_cap": self.sample_cap}
        for kind_name in episode_kind_names():
            cells = self.cells_for(kind_name)
            field_name = get_episode_kind(kind_name).cells_field
            payload[field_name] = [cells[key].to_dict()
                                   for key in _sorted_keys(cells)]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FleetAggregator":
        aggregator = cls(sample_cap=int(payload["sample_cap"]))
        for kind_name in episode_kind_names():
            kind = get_episode_kind(kind_name)
            cells = aggregator.cells_for(kind_name)
            # .get(): payloads written before a kind existed lack its field.
            for cell_payload in payload.get(kind.cells_field, []):
                cell = kind.cell_from_dict(cell_payload)
                cells[cell.key] = cell
        return aggregator

    @property
    def episodes(self) -> int:
        return sum(cell.episodes for cells in self._kind_cells.values()
                   for cell in cells.values())

    @property
    def recovery_episodes(self) -> int:
        return sum(cell.episodes for cell in self.recovery_cells.values())

    @property
    def design_episodes(self) -> int:
        return sum(cell.episodes for cell in self.design_cells.values())

    def rows_for(self, kind_name: str) -> List[Dict[str, object]]:
        """One row per cell of one kind, sorted by cell key."""
        cells = self.cells_for(kind_name)
        return [cells[key].as_row() for key in _sorted_keys(cells)]

    def rows(self) -> List[Dict[str, object]]:
        """One row per waypoint cell, sorted by cell key for stable output."""
        return self.rows_for("waypoint")

    def recovery_rows(self) -> List[Dict[str, object]]:
        """One row per recovery cell, sorted by cell key for stable output."""
        return self.rows_for("recovery")

    def design_rows(self) -> List[Dict[str, object]]:
        """One row per design-point cell, sorted by cell key."""
        return self.rows_for("design_point")

    def overall(self) -> Dict[str, object]:
        """Campaign-level summary across every cell."""
        waypoint_episodes = sum(cell.episodes for cell in self.cells.values())
        successes = sum(cell.successes for cell in self.cells.values())
        crashes = sum(cell.crashes for cell in self.cells.values())
        recovery_episodes = self.recovery_episodes
        recoveries = sum(cell.recoveries
                         for cell in self.recovery_cells.values())
        return {
            "cells": sum(len(cells) for cells in self._kind_cells.values()),
            "episodes": self.episodes,
            "success_rate": (successes / waypoint_episodes
                             if waypoint_episodes else 0.0),
            "crash_rate": (crashes / waypoint_episodes
                           if waypoint_episodes else 0.0),
            "recovery_episodes": recovery_episodes,
            "recovery_rate": (recoveries / recovery_episodes
                              if recovery_episodes else 0.0),
            "design_episodes": self.design_episodes,
        }
