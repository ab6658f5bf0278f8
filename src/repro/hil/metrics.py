"""Result records and aggregation for the HIL experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..drone.scenarios import Difficulty, Scenario

__all__ = ["ScenarioResult", "SweepCell", "success_rate", "median_solve_time",
           "solve_time_iqr", "mean_power", "aggregate_cell"]


@dataclass
class ScenarioResult:
    """Outcome of one closed-loop waypoint-tracking episode."""

    scenario: Scenario
    implementation: str
    frequency_mhz: float
    success: bool
    crashed: bool
    final_distance: float
    solve_times: List[float] = field(default_factory=list)
    solve_iterations: List[int] = field(default_factory=list)
    actuation_power_w: float = 0.0
    soc_power_w: float = 0.0
    flight_time_s: float = 0.0
    positions: Optional[np.ndarray] = None

    @property
    def total_power_w(self) -> float:
        return self.actuation_power_w + self.soc_power_w

    @property
    def median_solve_time(self) -> float:
        if not self.solve_times:
            return 0.0
        return float(np.median(self.solve_times))

    @property
    def mean_iterations(self) -> float:
        if not self.solve_iterations:
            return 0.0
        return float(np.mean(self.solve_iterations))

    @property
    def difficulty(self) -> Difficulty:
        return self.scenario.difficulty

    def to_dict(self) -> Dict[str, object]:
        """The journal's wire format: JSON-safe, tagged ``"kind":
        "waypoint"``, exact inverse of :meth:`from_dict` (floats
        round-trip bit for bit through JSON)."""
        return {
            "kind": "waypoint",
            "scenario": self.scenario.to_dict(),
            "implementation": self.implementation,
            "frequency_mhz": self.frequency_mhz,
            "success": bool(self.success),
            "crashed": bool(self.crashed),
            "final_distance": self.final_distance,
            "solve_times": list(self.solve_times),
            "solve_iterations": [int(i) for i in self.solve_iterations],
            "actuation_power_w": self.actuation_power_w,
            "soc_power_w": self.soc_power_w,
            "flight_time_s": self.flight_time_s,
            "positions": (None if self.positions is None
                          else np.asarray(self.positions).tolist()),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioResult":
        positions = payload["positions"]
        return cls(
            scenario=Scenario.from_dict(payload["scenario"]),
            implementation=payload["implementation"],
            frequency_mhz=payload["frequency_mhz"],
            success=bool(payload["success"]),
            crashed=bool(payload["crashed"]),
            final_distance=payload["final_distance"],
            solve_times=list(payload["solve_times"]),
            solve_iterations=[int(i) for i in payload["solve_iterations"]],
            actuation_power_w=payload["actuation_power_w"],
            soc_power_w=payload["soc_power_w"],
            flight_time_s=payload["flight_time_s"],
            positions=(None if positions is None
                       else np.asarray(positions, dtype=np.float64)))


@dataclass
class SweepCell:
    """Aggregated metrics for one (implementation, frequency, difficulty) cell."""

    implementation: str
    frequency_mhz: float
    difficulty: str
    episodes: int
    success_rate: float
    median_solve_time_ms: float
    solve_time_iqr_ms: float
    mean_actuation_power_w: float
    mean_soc_power_w: float
    mean_total_power_w: float
    mean_iterations: float

    def as_row(self) -> Dict[str, float]:
        return {
            "implementation": self.implementation,
            "frequency_mhz": self.frequency_mhz,
            "difficulty": self.difficulty,
            "episodes": self.episodes,
            "success_rate": self.success_rate,
            "median_solve_time_ms": self.median_solve_time_ms,
            "solve_time_iqr_ms": self.solve_time_iqr_ms,
            "mean_actuation_power_w": self.mean_actuation_power_w,
            "mean_soc_power_w": self.mean_soc_power_w,
            "mean_total_power_w": self.mean_total_power_w,
            "mean_iterations": self.mean_iterations,
        }


def success_rate(results: Sequence[ScenarioResult]) -> float:
    if not results:
        return 0.0
    return sum(1 for r in results if r.success) / len(results)


def median_solve_time(results: Sequence[ScenarioResult]) -> float:
    times = [t for r in results for t in r.solve_times]
    if not times:
        return 0.0
    return float(np.median(times))


def solve_time_iqr(results: Sequence[ScenarioResult]) -> float:
    times = [t for r in results for t in r.solve_times]
    if not times:
        return 0.0
    q75, q25 = np.percentile(times, [75.0, 25.0])
    return float(q75 - q25)


def mean_power(results: Sequence[ScenarioResult], which: str = "total") -> float:
    if not results:
        return 0.0
    if which == "actuation":
        return float(np.mean([r.actuation_power_w for r in results]))
    if which == "soc":
        return float(np.mean([r.soc_power_w for r in results]))
    return float(np.mean([r.total_power_w for r in results]))


def aggregate_cell(results: Sequence[ScenarioResult]) -> SweepCell:
    """Aggregate a list of episodes that share implementation/frequency/difficulty."""
    if not results:
        raise ValueError("cannot aggregate an empty result list")
    first = results[0]
    return SweepCell(
        implementation=first.implementation,
        frequency_mhz=first.frequency_mhz,
        difficulty=first.difficulty.value,
        episodes=len(results),
        success_rate=success_rate(results),
        median_solve_time_ms=median_solve_time(results) * 1e3,
        solve_time_iqr_ms=solve_time_iqr(results) * 1e3,
        mean_actuation_power_w=mean_power(results, "actuation"),
        mean_soc_power_w=mean_power(results, "soc"),
        mean_total_power_w=mean_power(results, "total"),
        mean_iterations=float(np.mean([r.mean_iterations for r in results])),
    )
