"""Sensor/estimator fault injection between the plant and the solver.

The HIL loop historically handed the solver the *true* plant state
(``plant.observe()``).  Real state estimators are noisy, late, and lossy;
this module models all three as a pipeline applied to each sampled state,
per control tick::

    true state -> fixed latency (delay by k control samples)
               -> additive Gaussian noise
               -> dropout-with-hold (measurement lost; solver re-sees the
                  previous delivered estimate)

Faults only corrupt what the *solver* sees — the recorded trajectory, the
crash detector, and the recovery analysis all run on the true plant state,
so a fault-induced failure is a genuine closed-loop failure, not a
bookkeeping artifact.

An episode batch (:class:`~repro.hil.episode.EpisodeBatch`) runs the
pipelines of all its faulty episodes at once (:class:`FaultPipelines`):
every random draw an episode's pipeline will make is drawn when the batch
is built, in the order the per-sample pipeline makes them
(:func:`draw_ahead`).

Determinism: the noise/dropout RNG seeds from a sha256 digest of the spec's
``seed`` field only (never ``PYTHONHASHSEED``, never the episode id), so an
episode spec fully determines its fault realization on every driver —
scalar loop, fleet scheduler, worker shard, or fuzzer replay.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SensorFaults", "FaultPipelines", "draw_ahead"]


@dataclass(frozen=True)
class SensorFaults:
    """Declarative sensor/estimator fault profile for one episode.

    ``noise_std`` is the per-component standard deviation of additive
    Gaussian noise on the full 12-dim state estimate (meters, radians,
    m/s, rad/s — one knob, the fuzzer's noise axis).  ``latency_s`` is a
    fixed estimator latency, rounded to whole control periods.
    ``dropout_rate`` is the per-sample probability that the measurement is
    lost, in which case the previous *delivered* estimate is held.
    """

    noise_std: float = 0.0
    latency_s: float = 0.0
    dropout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("noise_std", "latency_s", "dropout_rate"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0:
                raise ValueError("{} must be finite and non-negative, got "
                                 "{!r}".format(name, value))
        if self.dropout_rate >= 1.0:
            raise ValueError("dropout_rate must be < 1 (a dropout-only "
                             "sensor never delivers a measurement)")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def is_null(self) -> bool:
        """True when the profile is a no-op (clean sensing)."""
        return (self.noise_std == 0.0 and self.latency_s == 0.0
                and self.dropout_rate == 0.0)

    def rng(self) -> np.random.Generator:
        digest = hashlib.sha256(
            "sensor-faults:{}".format(self.seed).encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def describe(self) -> str:
        if self.is_null:
            return "clean"
        return "noise={:.3g} latency={:.3g}s dropout={:.3g} seed={}".format(
            self.noise_std, self.latency_s, self.dropout_rate, self.seed)

    def to_dict(self) -> Dict[str, object]:
        return {
            "noise_std": self.noise_std,
            "latency_s": self.latency_s,
            "dropout_rate": self.dropout_rate,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SensorFaults":
        return cls(**payload)


def draw_ahead(faults: SensorFaults, samples: int, state_dim: int
               ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """An episode's noise rows and dropout flags for its first ``samples``
    samples, as ``(noise, dropped)`` (``None`` for a fault it lacks).

    Drawn from :meth:`SensorFaults.rng` in the order the per-sample
    pipeline draws: each sample after the first tests for dropout when the
    profile drops, then a sample that was not dropped draws its noise
    vector when the profile is noisy.  The first sample never drops, since
    nothing has been delivered to hold.  Noise rows are already scaled by
    ``noise_std``; a dropped sample's row stays zero.
    """
    rng = faults.rng()
    noisy = faults.noise_std > 0.0
    lossy = faults.dropout_rate > 0.0
    noise = dropped = None
    if noisy and lossy:
        noise = np.zeros((samples, state_dim))
        dropped = np.zeros(samples, dtype=bool)
        for sample in range(samples):
            if sample and float(rng.random()) < faults.dropout_rate:
                dropped[sample] = True
            else:
                noise[sample] = (faults.noise_std
                                 * rng.standard_normal(state_dim))
    elif noisy:
        # One block draw is the per-sample draws, one row after another.
        noise = faults.noise_std * rng.standard_normal((samples, state_dim))
    elif lossy:
        dropped = np.zeros(samples, dtype=bool)
        dropped[1:] = rng.random(max(samples - 1, 0)) < faults.dropout_rate
    return noise, dropped


class FaultPipelines:
    """The fault pipelines of a batch's faulty columns, drawn ahead.

    ``profiles`` lists ``(column, faults, control_period, samples)`` for
    each column with a non-null profile; ``samples`` bounds how many
    states that column will observe.  Each column's draws are made here
    (:func:`draw_ahead`); its latency becomes a ring of the last
    ``delay + 1`` true samples.  :meth:`observe` then runs one sample of
    any set of columns through delay, noise and dropout-hold as array
    operations.
    """

    def __init__(self, width: int, state_dim: int,
                 profiles: Sequence[Tuple[int, SensorFaults, float, int]]
                 ) -> None:
        self.faulty = np.zeros(width, dtype=bool)
        self._observed = np.zeros(width, dtype=np.int64)
        self._delay = np.zeros(width, dtype=np.int64)
        self._noisy = np.zeros(width, dtype=bool)
        self._lossy = np.zeros(width, dtype=bool)
        # Row offsets into the concatenated per-column tables.
        self._ring_base = np.zeros(width, dtype=np.int64)
        self._noise_base = np.zeros(width, dtype=np.int64)
        self._drop_base = np.zeros(width, dtype=np.int64)
        ring_rows, noises, drops = 0, [], []
        noise_rows = drop_rows = 0
        for column, faults, control_period, samples in profiles:
            if control_period <= 0:
                raise ValueError("control_period must be positive")
            self.faulty[column] = True
            delay = int(round(faults.latency_s / control_period))
            self._delay[column] = delay
            if delay:
                self._ring_base[column] = ring_rows
                ring_rows += delay + 1
            noise, dropped = draw_ahead(faults, samples, state_dim)
            if noise is not None:
                self._noisy[column] = True
                self._noise_base[column] = noise_rows
                noise_rows += samples
                noises.append(noise)
            if dropped is not None:
                self._lossy[column] = True
                self._drop_base[column] = drop_rows
                drop_rows += samples
                drops.append(dropped)
        self._ring = np.zeros((ring_rows, state_dim)) if ring_rows else None
        self._noise = np.concatenate(noises) if noises else None
        self._dropped = np.concatenate(drops) if drops else None
        self._delivered = np.zeros((width, state_dim)) if drops else None

    def observe(self, columns: np.ndarray, truth: np.ndarray) -> np.ndarray:
        """The estimates of one sample of ``columns`` (all faulty) from
        their ``truth`` rows: delay, then noise, then dropout-hold.

        Overwrites and returns ``truth``.
        """
        sample = self._observed[columns]
        self._observed[columns] = sample + 1
        estimate = truth
        delayed = self._delay[columns] > 0
        if delayed.any():
            lagging = columns[delayed]
            delay = self._delay[lagging]
            base = self._ring_base[lagging]
            taken = sample[delayed]
            self._ring[base + taken % (delay + 1)] = truth[delayed]
            # Until the ring fills, the oldest sample stands in.
            estimate[delayed] = self._ring[
                base + np.maximum(taken - delay, 0) % (delay + 1)]
        noisy = self._noisy[columns]
        if noisy.any():
            estimate[noisy] += self._noise[
                self._noise_base[columns[noisy]] + sample[noisy]]
        lossy = np.flatnonzero(self._lossy[columns])
        if lossy.size:
            dropped = self._dropped[self._drop_base[columns[lossy]]
                                    + sample[lossy]]
            held, kept = lossy[dropped], lossy[~dropped]
            estimate[held] = self._delivered[columns[held]]
            self._delivered[columns[kept]] = estimate[kept]
        return estimate
