"""Waypoint-tracking scenarios for the HIL evaluation.

The paper evaluates the micro-drone on waypoint-tracking scenarios of three
difficulties (Figure 15), each with 20 unique waypoint sets:

============================  =====  =======  =====
Parameter                     Easy   Medium   Hard
============================  =====  =======  =====
Waypoint count                5      7        10
Time between waypoints (s)    0.5    0.4      0.3
Average waypoint distance (m) 0.3    0.7      1.1
============================  =====  =======  =====

The drone is not told future waypoints; each new waypoint arrives when its
time comes and the controller must re-plan online.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Difficulty", "DifficultySpec", "DIFFICULTY_SPECS", "Waypoint",
           "Scenario", "generate_scenario", "generate_scenario_set",
           "scenario_overview_table"]


class Difficulty(enum.Enum):
    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"


@dataclass(frozen=True)
class DifficultySpec:
    """Figure 15 scenario parameters for one difficulty level."""

    difficulty: Difficulty
    waypoint_count: int
    time_between_waypoints: float
    average_waypoint_distance: float
    settle_time: float = 1.5      # extra time after the final waypoint


DIFFICULTY_SPECS: Dict[Difficulty, DifficultySpec] = {
    Difficulty.EASY: DifficultySpec(Difficulty.EASY, 5, 0.5, 0.3),
    Difficulty.MEDIUM: DifficultySpec(Difficulty.MEDIUM, 7, 0.4, 0.7),
    Difficulty.HARD: DifficultySpec(Difficulty.HARD, 10, 0.3, 1.1),
}


@dataclass(frozen=True)
class Waypoint:
    """One waypoint: a target position that becomes active at a given time."""

    position: Tuple[float, float, float]
    activation_time: float

    def as_array(self) -> np.ndarray:
        return np.array(self.position, dtype=np.float64)


@dataclass
class Scenario:
    """A full waypoint-tracking scenario."""

    difficulty: Difficulty
    seed: int
    waypoints: List[Waypoint]
    start_position: Tuple[float, float, float]
    duration: float

    @property
    def final_waypoint(self) -> Waypoint:
        return self.waypoints[-1]

    def active_waypoint(self, time: float) -> Waypoint:
        """The most recently activated waypoint at a simulation time."""
        active = self.waypoints[0]
        for waypoint in self.waypoints:
            if waypoint.activation_time <= time:
                active = waypoint
            else:
                break
        return active

    def total_path_length(self) -> float:
        points = [np.array(self.start_position)] + [w.as_array() for w in self.waypoints]
        return float(sum(np.linalg.norm(points[i + 1] - points[i])
                         for i in range(len(points) - 1)))

    def average_leg_distance(self) -> float:
        return self.total_path_length() / len(self.waypoints)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering; exact inverse of :meth:`from_dict`.

        Field by field rather than ``(difficulty, seed)`` to regenerate
        from: fuzzer-shrunk or hand-built scenarios that never came from
        :func:`generate_scenario` round-trip exactly too.
        """
        return {
            "difficulty": self.difficulty.value,
            "seed": self.seed,
            "start_position": list(self.start_position),
            "duration": self.duration,
            "waypoints": [{"position": list(w.position),
                           "activation_time": w.activation_time}
                          for w in self.waypoints],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Scenario":
        return cls(
            difficulty=Difficulty(payload["difficulty"]),
            seed=int(payload["seed"]),
            waypoints=[Waypoint(position=tuple(w["position"]),
                                activation_time=w["activation_time"])
                       for w in payload["waypoints"]],
            start_position=tuple(payload["start_position"]),
            duration=payload["duration"])


def _scenario_rng(difficulty: Difficulty, seed: int) -> np.random.Generator:
    """Deterministic per-scenario RNG, stable across processes and platforms.

    Python's builtin ``hash`` is salted by ``PYTHONHASHSEED``, so seeding
    numpy with ``hash((difficulty.value, seed))`` generated *different*
    scenarios in every interpreter — fatal for sharded fleet campaigns and
    cached experiment results.  A sha256 digest of the identifying pair is
    stable everywhere.
    """
    digest = hashlib.sha256(
        "scenario:{}:{}".format(difficulty.value, seed).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _random_direction(rng: np.random.Generator) -> np.ndarray:
    """A random unit vector with a bounded vertical component.

    The vertical component is limited so scenarios stay within a realistic
    flight-volume altitude band instead of demanding pure climbs.
    """
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    vertical = rng.uniform(-0.35, 0.35)
    horizontal = math.sqrt(max(1.0 - vertical * vertical, 0.0))
    return np.array([horizontal * math.cos(azimuth),
                     horizontal * math.sin(azimuth),
                     vertical])


def generate_scenario(difficulty: Difficulty, seed: int,
                      start_position: Sequence[float] = (0.0, 0.0, 0.75),
                      altitude_limits: Tuple[float, float] = (0.3, 1.6)
                      ) -> Scenario:
    """Generate one reproducible waypoint scenario for a difficulty level."""
    spec = DIFFICULTY_SPECS[difficulty]
    rng = _scenario_rng(difficulty, seed)
    position = np.array(start_position, dtype=np.float64)
    waypoints: List[Waypoint] = []
    for index in range(spec.waypoint_count):
        # Leg lengths are jittered around the difficulty's average distance.
        distance = spec.average_waypoint_distance * rng.uniform(0.7, 1.3)
        step = distance * _random_direction(rng)
        candidate = position + step
        candidate[2] = float(np.clip(candidate[2], *altitude_limits))
        position = candidate
        activation_time = index * spec.time_between_waypoints
        waypoints.append(Waypoint(position=tuple(position.tolist()),
                                  activation_time=activation_time))
    duration = spec.waypoint_count * spec.time_between_waypoints + spec.settle_time
    return Scenario(difficulty=difficulty, seed=seed, waypoints=waypoints,
                    start_position=tuple(np.asarray(start_position, float).tolist()),
                    duration=duration)


def generate_scenario_set(difficulty: Difficulty, count: int = 20,
                          base_seed: int = 0) -> List[Scenario]:
    """Generate the paper's per-difficulty scenario set (20 unique sets)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return [generate_scenario(difficulty, seed=base_seed + index)
            for index in range(count)]


def scenario_overview_table() -> List[Dict[str, object]]:
    """Rows of the Figure 15 overview table (one row per difficulty)."""
    rows = []
    for difficulty, spec in DIFFICULTY_SPECS.items():
        rows.append({
            "difficulty": difficulty.value,
            "waypoint_count": spec.waypoint_count,
            "time_between_waypoints_s": spec.time_between_waypoints,
            "average_waypoint_distance_m": spec.average_waypoint_distance,
        })
    return rows
