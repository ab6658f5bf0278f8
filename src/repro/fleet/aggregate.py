"""Campaign aggregation: per-cell statistics over a campaign's results.

Once a campaign has run, ``supervisor._assemble`` feeds its per-episode
results, in campaign order, to one :class:`FleetAggregator`, which reports
success rates, tracking-error percentiles, power statistics, and
solve-time latency percentiles per aggregate *cell* (one configuration of
every axis except the scenario seed).  Disturbance-recovery episodes
(:class:`~repro.drone.disturbance.RecoveryResult`) fold into their own
per-category cells (:class:`RecoveryCellAggregate`): recovery rate,
time-to-recovery percentiles, peak-deviation percentiles, and the maximum
recovered magnitude observed on the campaign's magnitude ladder.

Per-metric sample sets are bounded by deterministic stride decimation
(:class:`ReservoirSamples`): once a cell's sample list exceeds
:data:`SAMPLE_CAP`, every other retained sample is dropped and the
keep-stride doubles.  Percentiles over a decimated set are approximations
with bounded, deterministic error; cells smaller than the cap (the common
case) are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..drone.disturbance import RecoveryResult
from ..hil.metrics import ScenarioResult
from .campaign import CELL_AXES, RECOVERY_CELL_AXES
from .design_point import DesignCellAggregate, DesignPointResult

__all__ = ["SAMPLE_CAP", "ReservoirSamples", "CellAggregate",
           "RecoveryCellAggregate", "FleetAggregator"]

# Samples each cell keeps per metric before stride decimation sets in.
SAMPLE_CAP = 4096


class ReservoirSamples:
    """Bounded sample list with deterministic stride decimation."""

    __slots__ = ("cap", "stride", "values", "_skip", "count")

    def __init__(self, cap: int = SAMPLE_CAP) -> None:
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
            self.values = self.values[::2]
            self.stride *= 2

    def extend(self, values) -> None:
        for value in values:
            self.add(value)

    def percentile(self, q: float) -> float:
        if not self.values:
            return float("nan")
        return float(np.percentile(self.values, q))


@dataclass
class CellAggregate:
    """Running statistics for one aggregate cell."""

    key: Tuple
    episodes: int = 0
    successes: int = 0
    crashes: int = 0
    sum_actuation_power: float = 0.0
    sum_soc_power: float = 0.0
    sum_total_power: float = 0.0
    sum_flight_time: float = 0.0
    sum_iterations: int = 0
    solve_count: int = 0
    tracking_errors: ReservoirSamples = field(default_factory=ReservoirSamples)
    total_powers: ReservoirSamples = field(default_factory=ReservoirSamples)
    solve_times: ReservoirSamples = field(default_factory=ReservoirSamples)

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
    episodes: int = 0
    recoveries: int = 0
    max_recovered_magnitude: float = 0.0
    min_unrecovered_magnitude: float = float("inf")
    times_to_recovery: ReservoirSamples = field(
        default_factory=ReservoirSamples)
    max_deviations: ReservoirSamples = field(default_factory=ReservoirSamples)

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


def _rows(cells: Dict[Tuple, object]) -> List[Dict[str, object]]:
    """One row per cell, sorted by cell key for stable output."""
    keys = sorted(cells, key=lambda k: tuple(map(str, k)))
    return [cells[key].as_row() for key in keys]


class FleetAggregator:
    """Aggregation of campaign results into per-cell statistics.

    Each result type folds into its own cell map: waypoint episodes
    (:class:`ScenarioResult`) into :attr:`cells`, disturbance-recovery
    episodes (:class:`RecoveryResult`) into :attr:`recovery_cells`, and
    design-point evaluations
    (:class:`~repro.fleet.design_point.DesignPointResult`) into
    :attr:`design_cells`; :meth:`rows`, :meth:`recovery_rows` and
    :meth:`design_rows` report them, and :meth:`overall` summarizes all
    three.
    """

    def __init__(self) -> None:
        self.cells: Dict[Tuple, CellAggregate] = {}
        self.recovery_cells: Dict[Tuple, RecoveryCellAggregate] = {}
        self.design_cells: Dict[Tuple, DesignCellAggregate] = {}

    def add(self, result, key: Tuple) -> None:
        """Consume one episode result into the aggregate cell ``key`` (the
        spec's ``cell_key()``)."""
        if isinstance(result, ScenarioResult):
            cells, new_cell = self.cells, CellAggregate
        elif isinstance(result, RecoveryResult):
            cells, new_cell = self.recovery_cells, RecoveryCellAggregate
        elif isinstance(result, DesignPointResult):
            cells, new_cell = self.design_cells, DesignCellAggregate
        else:
            raise TypeError("unknown episode result type: {!r}".format(
                type(result)))
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = new_cell(key=key)
        cell.add(result)

    @property
    def episodes(self) -> int:
        return (sum(cell.episodes for cell in self.cells.values())
                + self.recovery_episodes + self.design_episodes)

    @property
    def recovery_episodes(self) -> int:
        return sum(cell.episodes for cell in self.recovery_cells.values())

    @property
    def design_episodes(self) -> int:
        return sum(cell.episodes for cell in self.design_cells.values())

    def rows(self) -> List[Dict[str, object]]:
        """One row per waypoint cell, sorted by cell key for stable output."""
        return _rows(self.cells)

    def recovery_rows(self) -> List[Dict[str, object]]:
        """One row per recovery cell, sorted by cell key for stable output."""
        return _rows(self.recovery_cells)

    def design_rows(self) -> List[Dict[str, object]]:
        """One row per design-point cell, sorted by cell key."""
        return _rows(self.design_cells)

    def overall(self) -> Dict[str, object]:
        """Campaign-level summary across every cell."""
        waypoint_episodes = sum(cell.episodes for cell in self.cells.values())
        successes = sum(cell.successes for cell in self.cells.values())
        crashes = sum(cell.crashes for cell in self.cells.values())
        recovery_episodes = self.recovery_episodes
        recoveries = sum(cell.recoveries
                         for cell in self.recovery_cells.values())
        return {
            "cells": (len(self.cells) + len(self.recovery_cells)
                      + len(self.design_cells)),
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
