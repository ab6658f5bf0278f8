"""Stochastic gust and turbulence wrench fields.

The Section 5.2 robustness study covers 14 hand-picked discrete wrench
events (:mod:`repro.drone.disturbance`); real fleets face *continuous*
turbulence.  This module adds two standard gust models as first-class
wrench sources for disturbance-recovery episodes:

* :class:`DrydenGust` — Dryden-style filtered noise: each force axis is a
  first-order Gauss-Markov process (white noise through a low-pass filter
  with the Dryden correlation time), the discrete-time approximation of
  the Dryden turbulence spectra used in flight-dynamics simulation.
* :class:`DiscreteGust` — the classic "1-cosine" discrete gust: a smooth
  cosine ramp to a peak wrench, an optional hold, and a mirrored ramp out.

Both expose the same protocol as :class:`~repro.drone.disturbance
.Disturbance` — ``category`` / ``kind`` / ``magnitude`` / ``start_time`` /
``end_time`` / ``describe()`` for cell keys and aggregates, and
``sampler(physics_dt, duration)`` returning an object with two views of
one wrench signal:

* ``wrench_into(time, dt, force_out, torque_out)`` writes one tick's
  force and torque into caller-owned buffers with pure scalar arithmetic
  (the reference);
* ``wrench_table(dt, steps)`` returns ``(first, rows, outside)``: the
  ``(k, 6)`` force and torque rows of ticks ``first .. first + k - 1``
  and the ``(6,)`` wrench of every other tick, bit for bit what
  ``wrench_into`` writes there.  An episode builds it once and its ticks
  read rows.

Determinism: Dryden noise is seeded from a sha256 digest of the spec's
``seed`` (never ``PYTHONHASHSEED``), and the underlying unit-variance noise
path is *independent of* ``magnitude`` — scaling the magnitude rescales the
same turbulence realization, which keeps the fuzzer's recovered/crashed
boundary search monotone along the magnitude axis.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["GustCategory", "GustModel", "DrydenGust", "DiscreteGust",
           "TabulatedWrench", "wrench_to_dict", "wrench_from_dict"]


class GustCategory(enum.Enum):
    """Aggregate-cell category for continuous gust fields.

    Plays the role :class:`~repro.drone.disturbance.DisturbanceCategory`
    plays for discrete wrench events: recovery cell keys read
    ``wrench.category.value``.
    """

    GUST = "gust"


class GustModel(enum.Enum):
    """The gust flavour — the ``kind`` column of a recovery cell."""

    DRYDEN = "dryden"
    DISCRETE = "discrete_gust"


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("{} must be finite, got {!r}".format(name, value))
    return value


class TabulatedWrench:
    """Per-physics-tick wrench samples with an allocation-free lookup.

    The table is built once per episode (:meth:`DrydenGust.sampler`); the
    per-tick :meth:`wrench_into` is an integer index plus six scalar writes
    into the caller's buffers — zero numpy allocation, same discipline as
    :meth:`~repro.drone.disturbance.Disturbance.wrench_into`.
    """

    __slots__ = ("dt", "_fx", "_fy", "_fz", "_tx", "_ty", "_tz", "_last")

    def __init__(self, dt: float, forces: np.ndarray,
                 torques: np.ndarray) -> None:
        self.dt = float(dt)
        # Python float lists: per-tick reads stay off the numpy allocator.
        self._fx = [float(v) for v in forces[:, 0]]
        self._fy = [float(v) for v in forces[:, 1]]
        self._fz = [float(v) for v in forces[:, 2]]
        self._tx = [float(v) for v in torques[:, 0]]
        self._ty = [float(v) for v in torques[:, 1]]
        self._tz = [float(v) for v in torques[:, 2]]
        self._last = len(self._fx) - 1

    def __len__(self) -> int:
        return len(self._fx)

    def wrench_into(self, time: float, physics_dt: float,
                    force_out: np.ndarray, torque_out: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        index = int(time / self.dt + 0.5)
        if index < 0:
            index = 0
        elif index > self._last:
            index = self._last
        force_out[0] = self._fx[index]
        force_out[1] = self._fy[index]
        force_out[2] = self._fz[index]
        torque_out[0] = self._tx[index]
        torque_out[1] = self._ty[index]
        torque_out[2] = self._tz[index]
        return force_out, torque_out

    def wrench_table(self, physics_dt: float, steps: int
                     ) -> Tuple[int, np.ndarray, np.ndarray]:
        """The table's rows at each tick's :meth:`wrench_into` index.

        Tick 0's row stands for the ticks outside the window, which spans
        the first to the last tick whose row differs from it bit for bit.
        """
        times = np.arange(steps) * physics_dt
        index = np.clip((times / self.dt + 0.5).astype(np.int64), 0,
                        self._last)
        rows = np.column_stack((self._fx, self._fy, self._fz, self._tx,
                                self._ty, self._tz))[index]
        if not steps:
            return 0, rows, np.zeros(6)
        outside = rows[0].copy()
        live = np.flatnonzero(
            (rows.view(np.uint64) != outside.view(np.uint64)).any(axis=1))
        if not live.size:
            return 0, rows[:0].copy(), outside
        return int(live[0]), rows[live[0]:live[-1] + 1].copy(), outside


@dataclass(frozen=True)
class DrydenGust:
    """A seeded Dryden-style turbulence field.

    ``magnitude`` is the RMS gust force in Newtons on a unit-weight axis;
    ``direction_weights`` shape the anisotropy (vertical turbulence is
    weaker than horizontal in the Dryden model); ``correlation_time`` is
    the filter time constant (length scale over airspeed).  A small
    correlated torque (``torque_fraction`` of the force) models the moment
    arm of non-uniform gusts over the airframe.
    """

    magnitude: float                       # N (RMS per unit-weight axis)
    seed: int = 0
    correlation_time: float = 0.25         # s
    direction_weights: Tuple[float, float, float] = (1.0, 1.0, 0.5)
    torque_fraction: float = 0.02          # N*m of torque per N of force
    start_time: float = 0.0
    duration: float = 3.0

    def __post_init__(self) -> None:
        if _require_finite("magnitude", self.magnitude) < 0:
            raise ValueError("magnitude must be non-negative")
        if _require_finite("correlation_time", self.correlation_time) <= 0:
            raise ValueError("correlation_time must be positive")
        for weight in self.direction_weights:
            _require_finite("direction weight", weight)
        _require_finite("torque_fraction", self.torque_fraction)
        if _require_finite("start_time", self.start_time) < 0:
            raise ValueError("start_time must be non-negative")
        if _require_finite("duration", self.duration) <= 0:
            raise ValueError("duration must be positive")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def category(self) -> GustCategory:
        return GustCategory.GUST

    @property
    def kind(self) -> GustModel:
        return GustModel.DRYDEN

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def describe(self) -> str:
        return "dryden-gust sigma={:.3g} T={:.3g}s seed={}".format(
            self.magnitude, self.correlation_time, self.seed)

    def _rng(self) -> np.random.Generator:
        """Noise-path RNG: depends on ``seed`` only (sha256, never the
        salted builtin ``hash``), so scaling ``magnitude`` rescales one
        fixed turbulence realization."""
        digest = hashlib.sha256(
            "dryden-gust:{}".format(self.seed).encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def sampler(self, physics_dt: float, duration: float) -> TabulatedWrench:
        """Tabulate the gust wrench on the episode's physics-tick grid.

        First-order Gauss-Markov discretization per axis::

            g[k+1] = a g[k] + sigma_i sqrt(1 - a^2) w[k],  a = exp(-dt/T)

        started from the stationary distribution, zero outside the
        ``[start_time, end_time)`` window.
        """
        if physics_dt <= 0:
            raise ValueError("physics_dt must be positive")
        steps = max(int(round(duration / physics_dt)), 1)
        rng = self._rng()
        # One unit-variance AR(1) path per axis over the *whole* episode
        # grid; windowing masks it afterwards so the realization at a tick
        # does not depend on start_time.
        a = math.exp(-physics_dt / self.correlation_time)
        b = math.sqrt(1.0 - a * a)
        noise = rng.standard_normal((steps + 1, 3))
        path = np.empty((steps, 3))
        state = noise[0]                   # stationary start (unit variance)
        for k in range(steps):
            path[k] = state
            state = a * state + b * noise[k + 1]
        sigmas = self.magnitude * np.asarray(self.direction_weights)
        forces = path * sigmas
        times = np.arange(steps) * physics_dt
        window = (times >= self.start_time) & (times < self.end_time)
        forces[~window] = 0.0
        torques = forces * self.torque_fraction
        return TabulatedWrench(physics_dt, forces, torques)

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "dryden_gust",
            "magnitude": self.magnitude,
            "seed": self.seed,
            "correlation_time": self.correlation_time,
            "direction_weights": list(self.direction_weights),
            "torque_fraction": self.torque_fraction,
            "start_time": self.start_time,
            "duration": self.duration,
        }


@dataclass(frozen=True)
class DiscreteGust:
    """A "1-cosine" discrete gust: smooth ramp in, hold, mirrored ramp out.

    The standard certification gust shape: amplitude rises as
    ``magnitude/2 (1 - cos(pi t / ramp_time))`` over ``ramp_time``, holds
    the peak for ``hold_time``, and ramps back down symmetrically.  The
    wrench evaluation is closed-form scalar arithmetic, so the spec is its
    own zero-alloc sampler.
    """

    magnitude: float                       # N at the gust peak
    direction: Tuple[float, float, float] = (1.0, 0.0, 0.0)
    ramp_time: float = 0.3                 # s, cosine ramp in and out
    hold_time: float = 0.2                 # s at the peak
    torque_fraction: float = 0.02
    start_time: float = 0.5

    def __post_init__(self) -> None:
        if _require_finite("magnitude", self.magnitude) < 0:
            raise ValueError("magnitude must be non-negative")
        if _require_finite("ramp_time", self.ramp_time) <= 0:
            raise ValueError("ramp_time must be positive")
        if _require_finite("hold_time", self.hold_time) < 0:
            raise ValueError("hold_time must be non-negative")
        _require_finite("torque_fraction", self.torque_fraction)
        if _require_finite("start_time", self.start_time) < 0:
            raise ValueError("start_time must be non-negative")
        direction = np.asarray(self.direction, dtype=np.float64)
        if not np.all(np.isfinite(direction)):
            raise ValueError("gust direction must be finite")
        norm = float(np.linalg.norm(direction))
        if norm == 0:
            raise ValueError("gust direction must be non-zero")
        unit = direction / norm
        object.__setattr__(self, "_unit",
                           (float(unit[0]), float(unit[1]), float(unit[2])))

    @property
    def category(self) -> GustCategory:
        return GustCategory.GUST

    @property
    def kind(self) -> GustModel:
        return GustModel.DISCRETE

    @property
    def duration(self) -> float:
        return 2.0 * self.ramp_time + self.hold_time

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def describe(self) -> str:
        return "discrete-gust {:.3g} along {} ramp={:.3g}s".format(
            self.magnitude, self.direction, self.ramp_time)

    def sampler(self, physics_dt: float, duration: float) -> "DiscreteGust":
        """Closed-form and allocation-free already; the spec samples itself."""
        return self

    def _amplitude_at(self, time: float) -> float:
        t = time - self.start_time
        if t < 0.0 or t >= self.duration:
            return 0.0
        if t < self.ramp_time:
            return 0.5 * self.magnitude * (1.0 - math.cos(math.pi * t / self.ramp_time))
        if t < self.ramp_time + self.hold_time:
            return self.magnitude
        t = self.duration - t                # mirrored ramp out
        return 0.5 * self.magnitude * (1.0 - math.cos(math.pi * t / self.ramp_time))

    def wrench_into(self, time: float, physics_dt: float,
                    force_out: np.ndarray, torque_out: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        amplitude = self._amplitude_at(time)
        ux, uy, uz = self._unit
        force_out[0] = amplitude * ux
        force_out[1] = amplitude * uy
        force_out[2] = amplitude * uz
        scale = amplitude * self.torque_fraction
        torque_out[0] = scale * ux
        torque_out[1] = scale * uy
        torque_out[2] = scale * uz
        return force_out, torque_out

    def _rows(self, amplitudes: np.ndarray) -> np.ndarray:
        """:meth:`wrench_into`'s products for each amplitude, as rows."""
        unit = np.array(self._unit)
        return np.hstack((amplitudes[:, None] * unit,
                          (amplitudes * self.torque_fraction)[:, None] * unit))

    def wrench_table(self, physics_dt: float, steps: int
                     ) -> Tuple[int, np.ndarray, np.ndarray]:
        """The gust's window of ticks, with :meth:`_amplitude_at` per tick,
        and the zero-amplitude wrench of every other tick.

        The ramps are evaluated with :func:`math.cos` as in
        :meth:`wrench_into` (``np.cos`` may round differently).  A
        negative direction component or torque fraction makes parts of
        the outside wrench ``-0.0``.
        """
        offsets = np.arange(steps) * physics_dt - self.start_time
        ticks = np.flatnonzero((offsets >= 0.0) & (offsets < self.duration))
        outside = self._rows(np.zeros(1))[0]
        if not ticks.size:
            return 0, np.zeros((0, 6)), outside
        times = (ticks * physics_dt).tolist()
        return int(ticks[0]), self._rows(np.array(
            [self._amplitude_at(time) for time in times],
            dtype=np.float64)), outside

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "discrete_gust",
            "magnitude": self.magnitude,
            "direction": list(self.direction),
            "ramp_time": self.ramp_time,
            "hold_time": self.hold_time,
            "torque_fraction": self.torque_fraction,
            "start_time": self.start_time,
        }


# -- (de)serialization for fixtures and campaign JSON --------------------------

def wrench_to_dict(wrench) -> Dict[str, object]:
    """Serialize any wrench event (discrete Disturbance or gust spec)."""
    from .disturbance import Disturbance
    if isinstance(wrench, Disturbance):
        return {
            "type": "disturbance",
            "category": wrench.category.value,
            "kind": wrench.kind.value,
            "direction": list(wrench.direction),
            "magnitude": wrench.magnitude,
            "start_time": wrench.start_time,
            "duration": wrench.duration,
        }
    if isinstance(wrench, (DrydenGust, DiscreteGust)):
        return wrench.to_dict()
    raise TypeError("unknown wrench event type: {!r}".format(type(wrench)))


def wrench_from_dict(payload: Dict[str, object]):
    """Inverse of :func:`wrench_to_dict`."""
    from .disturbance import Disturbance, DisturbanceCategory, DisturbanceType
    payload = dict(payload)
    kind = payload.pop("type")
    if kind == "disturbance":
        return Disturbance(
            category=DisturbanceCategory(payload["category"]),
            kind=DisturbanceType(payload["kind"]),
            direction=tuple(payload["direction"]),
            magnitude=payload["magnitude"],
            start_time=payload["start_time"],
            duration=payload["duration"])
    if kind == "dryden_gust":
        payload["direction_weights"] = tuple(payload["direction_weights"])
        return DrydenGust(**payload)
    if kind == "discrete_gust":
        payload["direction"] = tuple(payload["direction"])
        return DiscreteGust(**payload)
    raise ValueError("unknown wrench event type {!r}".format(kind))
