"""Disturbance injection and recovery metrics.

Section 5.2 of the paper evaluates robustness by applying 100 ms step and
impulse disturbances (axis-aligned forces, torques, and combined vectors)
and measuring (a) the maximum recoverable magnitude and (b) the
time-to-recovery (TTR), defined as returning to within 5 cm of the hold
position for 250 ms.

This module defines the disturbance descriptions, the time-varying external
wrench they produce, and the recovery analysis over a recorded trajectory.
The closed-loop execution lives in :mod:`repro.hil.loop`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .gusts import wrench_from_dict, wrench_to_dict

__all__ = ["DisturbanceType", "DisturbanceCategory", "Disturbance",
           "CATEGORY_DIRECTIONS", "disturbance_grid",
           "standard_disturbance_suite", "RecoveryResult", "analyze_recovery"]

RECOVERY_RADIUS = 0.05       # m   (5 cm, from the paper)
RECOVERY_HOLD_TIME = 0.25    # s   (250 ms, from the paper)
DEFAULT_DURATION = 0.1       # s   (100 ms disturbances)


class DisturbanceType(enum.Enum):
    STEP = "step"          # constant over the disturbance window
    IMPULSE = "impulse"    # same momentum/angular impulse, delivered in one physics step


class DisturbanceCategory(enum.Enum):
    FORCE = "force"
    TORQUE = "torque"
    COMBINED = "combined"


@dataclass(frozen=True)
class Disturbance:
    """A single disturbance event.

    The unit direction is normalized (and validated) once at construction.
    :meth:`wrench_into` is the per-tick reference, pure scalar arithmetic
    into caller-owned buffers that allocates nothing; episodes fly the
    same values tabulated once by :meth:`wrench_table`.
    """

    category: DisturbanceCategory
    kind: DisturbanceType
    direction: Tuple[float, float, float]
    magnitude: float                  # N for forces, N*m for torques
    start_time: float = 0.5
    duration: float = DEFAULT_DURATION

    def __post_init__(self) -> None:
        # Reject garbage early: a NaN magnitude or start time silently
        # produces a never-active (or always-active) wrench window and a
        # boundary search that bisects noise.
        if not math.isfinite(self.magnitude):
            raise ValueError("disturbance magnitude must be finite, got {!r}"
                             .format(self.magnitude))
        if not math.isfinite(self.start_time):
            raise ValueError("disturbance start_time must be finite, got {!r}"
                             .format(self.start_time))
        if not math.isfinite(self.duration) or self.duration <= 0:
            raise ValueError("disturbance duration must be finite and "
                             "positive, got {!r}".format(self.duration))
        direction = np.asarray(self.direction, dtype=np.float64)
        if not np.all(np.isfinite(direction)):
            raise ValueError("disturbance direction must be finite")
        norm = np.linalg.norm(direction)
        if norm == 0:
            raise ValueError("disturbance direction must be non-zero")
        unit = direction / norm
        # Not a dataclass field: cached derived value, excluded from eq/repr.
        object.__setattr__(self, "_unit",
                           (float(unit[0]), float(unit[1]), float(unit[2])))

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def sampler(self, physics_dt: float, duration: float) -> "Disturbance":
        """The per-tick wrench source for one episode.

        Part of the shared wrench-event protocol (see
        :mod:`repro.drone.gusts`): stochastic fields tabulate a seeded
        realization here; a discrete disturbance is closed-form and simply
        samples itself.
        """
        return self

    def _amplitude_at(self, time: float, physics_dt: float) -> float:
        """Scalar wrench amplitude at ``time`` (0.0 outside the window).

        Step disturbances apply the magnitude over the whole window; impulse
        disturbances deliver the equivalent impulse (magnitude × duration)
        within a single physics step — the first step whose sample time
        falls in ``[start_time, start_time + physics_dt)``, so a start time
        off the physics-step grid still delivers the impulse exactly once.
        """
        if self.kind is DisturbanceType.STEP:
            if self.start_time <= time < self.end_time:
                return self.magnitude
            return 0.0
        if self.start_time <= time < self.start_time + physics_dt:
            return self.magnitude * self.duration / physics_dt
        return 0.0

    def wrench_into(self, time: float, physics_dt: float,
                    force_out: np.ndarray, torque_out: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Write the external (force, torque) at ``time`` into buffers.

        All-scalar writes into the caller's ``(3,)`` buffers, zero
        allocation.  Returns the buffers.
        """
        amplitude = self._amplitude_at(time, physics_dt)
        ux, uy, uz = self._unit
        category = self.category
        if amplitude != 0.0 and category is not DisturbanceCategory.TORQUE:
            force_out[0] = amplitude * ux
            force_out[1] = amplitude * uy
            force_out[2] = amplitude * uz
        else:
            force_out[0] = force_out[1] = force_out[2] = 0.0
        if amplitude != 0.0 and category is not DisturbanceCategory.FORCE:
            # Combined disturbances split the magnitude between force and a
            # proportionally scaled torque about the same axis.
            scale = (amplitude * 0.02 if category is DisturbanceCategory.COMBINED
                     else amplitude)
            torque_out[0] = scale * ux
            torque_out[1] = scale * uy
            torque_out[2] = scale * uz
        else:
            torque_out[0] = torque_out[1] = torque_out[2] = 0.0
        return force_out, torque_out

    def wrench_table(self, physics_dt: float, steps: int
                     ) -> Tuple[int, np.ndarray, np.ndarray]:
        """The wrench of ticks ``0 .. steps - 1`` as ``(first, rows,
        outside)``.

        Part of the wrench-event protocol (see :mod:`repro.drone.gusts`):
        row ``i`` of the ``(k, 6)`` array is the force and torque
        :meth:`wrench_into` writes at tick ``first + i``, and every other
        tick's wrench is ``outside``, here ``+0.0``.  The amplitude is
        constant over the window, so every row is the window's first
        sample.
        """
        times = np.arange(steps) * physics_dt
        end = (self.end_time if self.kind is DisturbanceType.STEP
               else self.start_time + physics_dt)
        ticks = np.flatnonzero((self.start_time <= times) & (times < end))
        outside = np.zeros(6)
        if not ticks.size:
            return 0, np.zeros((0, 6)), outside
        row = np.concatenate(self.wrench_at(float(times[ticks[0]]),
                                            physics_dt))
        return int(ticks[0]), np.tile(row, (ticks.size, 1)), outside

    def wrench_at(self, time: float, physics_dt: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """External (force, torque) at ``time`` as freshly allocated arrays.

        Allocating convenience wrapper over :meth:`wrench_into`; loops that
        run per physics tick should pass reusable buffers to
        :meth:`wrench_into` instead.
        """
        return self.wrench_into(time, physics_dt, np.zeros(3), np.zeros(3))

    def describe(self) -> str:
        return "{}-{} {:.3g} along {}".format(
            self.category.value, self.kind.value, self.magnitude, self.direction)


# The paper's direction sets per disturbance category: axis-aligned unit
# vectors for pure forces/torques, one combined vector otherwise.  Shared by
# the standard suite below and the fleet campaign disturbance axis, so the
# suite has exactly one definition.
_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
CATEGORY_DIRECTIONS: Dict[DisturbanceCategory, Tuple[Tuple[float, float, float], ...]] = {
    DisturbanceCategory.FORCE: _AXES,
    DisturbanceCategory.TORQUE: _AXES,
    DisturbanceCategory.COMBINED: ((1.0, 1.0, 0.5),),
}


def disturbance_grid(categories: Sequence[DisturbanceCategory],
                     kinds: Sequence[DisturbanceType],
                     force_magnitude: float = 0.08,
                     torque_magnitude: float = 0.002,
                     scales: Sequence[float] = (1.0,),
                     start_times: Sequence[float] = (0.5,)
                     ) -> List[Disturbance]:
    """Cross product of disturbance events, in deterministic order
    ``category > kind > direction > magnitude scale > start time``.

    Directions come from :data:`CATEGORY_DIRECTIONS`; magnitudes are the
    per-category base (``force_magnitude`` for forces and combined events,
    ``torque_magnitude`` for torques) times each ladder rung in ``scales``.
    """
    base_magnitude = {
        DisturbanceCategory.FORCE: force_magnitude,
        DisturbanceCategory.TORQUE: torque_magnitude,
        DisturbanceCategory.COMBINED: force_magnitude,
    }
    return [
        Disturbance(category=category, kind=kind, direction=direction,
                    magnitude=base_magnitude[category] * scale,
                    start_time=start)
        for category in categories
        for kind in kinds
        for direction in CATEGORY_DIRECTIONS[category]
        for scale in scales
        for start in start_times
    ]


def standard_disturbance_suite(force_magnitude: float = 0.08,
                               torque_magnitude: float = 0.002,
                               start_time: float = 0.5) -> List[Disturbance]:
    """The paper's 14-event disturbance sweep: axis-aligned forces and
    torques plus a combined vector, in both step and impulse flavours."""
    return disturbance_grid(tuple(DisturbanceCategory), tuple(DisturbanceType),
                            force_magnitude, torque_magnitude,
                            start_times=(start_time,))


@dataclass
class RecoveryResult:
    """Outcome of a disturbance-recovery run."""

    recovered: bool
    time_to_recovery: Optional[float]     # seconds after the disturbance ends
    max_deviation: float                  # meters from the hold position
    disturbance: Optional[Disturbance] = None

    def to_dict(self) -> Dict[str, object]:
        """The journal's wire format: JSON-safe, tagged ``"kind":
        "recovery"``, exact inverse of :meth:`from_dict`."""
        return {
            "kind": "recovery",
            "recovered": bool(self.recovered),
            "time_to_recovery": self.time_to_recovery,
            "max_deviation": self.max_deviation,
            "disturbance": (None if self.disturbance is None
                            else wrench_to_dict(self.disturbance)),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RecoveryResult":
        return cls(
            recovered=bool(payload["recovered"]),
            time_to_recovery=payload["time_to_recovery"],
            max_deviation=payload["max_deviation"],
            disturbance=(None if payload["disturbance"] is None
                         else wrench_from_dict(payload["disturbance"])))


def analyze_recovery(times: Sequence[float], positions: Sequence[Sequence[float]],
                     hold_position: Sequence[float], disturbance_end: float,
                     radius: float = RECOVERY_RADIUS,
                     hold_time: float = RECOVERY_HOLD_TIME,
                     disturbance_start: float = 0.0,
                     allow_truncated_tail: bool = False) -> RecoveryResult:
    """Compute recovery metrics from a recorded trajectory.

    Recovery is achieved at the first time after ``disturbance_end`` from
    which the drone stays within ``radius`` of the hold position for at
    least ``hold_time`` seconds — the paper's 5 cm / 250 ms criterion.  The
    hold window must be observed in full: a trajectory that ends inside the
    radius before ``hold_time`` has elapsed does **not** count as recovered
    unless ``allow_truncated_tail=True``, which restores the historical
    relaxed rule (half a hold window of in-radius tail suffices).

    ``max_deviation`` is the peak excursion from the hold position over all
    samples at or after ``disturbance_start`` — it includes the excursion
    *during* the disturbance window, not just the post-disturbance ringing.
    """
    times = np.asarray(times, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    hold = np.asarray(hold_position, dtype=np.float64)
    if len(times) != len(positions):
        raise ValueError("times and positions must have equal length")
    if len(times) == 0:
        return RecoveryResult(recovered=False, time_to_recovery=None,
                              max_deviation=float("inf"))
    deviations = np.linalg.norm(positions.reshape(len(times), -1) - hold, axis=1)
    observed = times >= disturbance_start
    max_deviation = (float(np.max(deviations[observed])) if np.any(observed)
                     else float("inf"))

    after = times >= disturbance_end
    inside = deviations <= radius
    candidate_start: Optional[float] = None
    for time, ok, is_after in zip(times, inside, after):
        if not is_after:
            continue
        if ok:
            if candidate_start is None:
                candidate_start = time
            if time - candidate_start >= hold_time:
                return RecoveryResult(recovered=True,
                                      time_to_recovery=float(candidate_start - disturbance_end),
                                      max_deviation=max_deviation)
        else:
            candidate_start = None
    # Trajectory ended while inside the radius.  The paper criterion needs
    # the full hold window observed; ``allow_truncated_tail`` accepts half.
    required_tail = 0.5 * hold_time if allow_truncated_tail else hold_time
    if candidate_start is not None and times[-1] - candidate_start >= required_tail:
        return RecoveryResult(recovered=True,
                              time_to_recovery=float(candidate_start - disturbance_end),
                              max_deviation=max_deviation)
    return RecoveryResult(recovered=False, time_to_recovery=None,
                          max_deviation=max_deviation)
