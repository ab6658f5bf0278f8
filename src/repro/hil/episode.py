"""The HIL episode state machine, flown as columns of a batch.

One implementation serves every caller and both episode kinds:

* **waypoint tracking** (:class:`~repro.drone.scenarios.Scenario`) — fly the
  scenario's waypoint schedule; the result is a
  :class:`~repro.hil.metrics.ScenarioResult`;
* **disturbance recovery** (:class:`RecoveryEpisode`) — hold a fixed goal,
  inject the episode's time-varying wrench, record every step's position,
  and run :func:`~repro.drone.disturbance.analyze_recovery` at exhaustion;
  the result is a :class:`~repro.drone.disturbance.RecoveryResult`.

:class:`EpisodeBatch` flies many episodes on one struct-of-arrays plant
(:class:`~repro.drone.quadrotor.QuadrotorBatch`, one column per episode),
and its state machine is arrays over those columns: the tick counters,
the clocks (next control tick, the tick each pending command lands, the
next event tick), the pending commands, the sampled states and goals.  Each
call advances the columns it is given until every one of them blocks on
an MPC solve or ends.  Every physics tick is one plant tick over all of
those columns: one call into the compiled plant (or, without a C
toolchain, its scalar arithmetic per column) steps, crash-checks and
meters every one of them.

Control bookkeeping runs when solves return and at a column's *event
ticks* (a control tick with the solver free, or the end), each time as
one set of array operations over every column concerned.  When a
dispatch's solves return, their latencies are one array expression, and
the tick each command lands and each column's next event tick are found
for all of them at once (:func:`first_ticks`), with the same
``time >= threshold`` tests a plain per-tick loop makes.  Between events
the plant flies stretches of ticks, and a command lands on its tick
inside the stretch.

What a tick needs beyond the plant is tabulated when the batch is built,
only for the columns that use it and sized per episode: each disturbed
column's wrench window (the event's ``wrench_table``), each recording
column's position rows, and each faulty column's sensor noise and dropout
draws (:class:`~repro.hil.faults.FaultPipelines`).  A tick then writes the
wrenches of the columns inside their windows with flat indexed writes and
copies the plant's positions with one slice; a stretch files the copies
into the position rows at its end.

The fleet scheduler drives one batch over all HIL episodes of a campaign
chunk and reads the requests as column arrays (:attr:`EpisodeBatch.x0`,
:attr:`EpisodeBatch.goal`, :attr:`EpisodeBatch.sample_time`);
:meth:`EpisodeRunner.run` is a batch of one behind a generator that yields
each :class:`SolveRequest` and expects ``(control, iterations)`` back.
Where that solve runs (a scalar :class:`~repro.tinympc.solver.TinyMPCSolver`,
one slot of a :class:`~repro.tinympc.batch.BatchTinyMPCSolver`) is
invisible to the episode, and a batch column computes exactly what a lone
episode does, so scalar and fleet runs can only diverge through the numbers
the solver returns.

Timing semantics (identical for both kinds)::

    state sampled -> UART downlink -> solve (iterations x cycles / f_clk)
                  -> UART uplink   -> motor command applied

The solver cannot accept a new state while a solve is in flight; if a solve
overruns one or more control periods, the next solve resumes on the first
period boundary after the solver frees up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence, Tuple, Union

import numpy as np

from ..drone import (
    INPUT_DIM,
    STATE_DIM,
    Disturbance,
    DroneParams,
    QuadrotorBatch,
    RecoveryResult,
    Scenario,
    analyze_recovery,
    hover_input,
    hover_state,
)
from .faults import FaultPipelines, SensorFaults
from .metrics import ScenarioResult
from .soc import SoCModel

__all__ = ["SolveRequest", "RecoveryEpisode", "EpisodeRunner", "EpisodeBatch",
           "EpisodeResult", "first_ticks"]


@dataclass
class SolveRequest:
    """One MPC solve a lone episode (:meth:`EpisodeRunner.run`) needs
    before it can keep flying.

    ``episode`` is the runner's ``episode_id``; ``time`` is the
    episode-local virtual time at which the state was sampled.
    """

    episode: int
    time: float
    x0: np.ndarray           # sampled plant state, shape (12,)
    goal: np.ndarray         # goal state for the active waypoint, (12,)


@dataclass(frozen=True)
class RecoveryEpisode:
    """Mission description of one disturbance-recovery episode (Fig. 17).

    The drone holds ``hold_position``, the ``disturbance`` wrench is
    injected on the physics-tick grid, and the trajectory is analyzed with
    the paper's 5 cm / 250 ms recovery criterion at episode exhaustion.

    ``disturbance`` accepts any wrench event implementing the protocol in
    :mod:`repro.drone.gusts` — a deterministic :class:`Disturbance`, a
    stochastic :class:`~repro.drone.gusts.DrydenGust`, or a 1-cosine
    :class:`~repro.drone.gusts.DiscreteGust`; the batch asks the event for
    its per-episode :meth:`sampler` once and flies the sampler's
    ``wrench_table``.
    """

    disturbance: Disturbance  # or any gusts.py wrench event (duck-typed)
    hold_position: Tuple[float, float, float] = (0.0, 0.0, 0.75)
    duration: float = 3.0


# What EpisodeRunner.result holds after exhaustion, by episode kind.
EpisodeResult = Union[ScenarioResult, RecoveryResult]


def first_ticks(threshold: np.ndarray, after: np.ndarray, last: np.ndarray,
                dt: np.ndarray) -> np.ndarray:
    """For each entry, the first tick ``j`` in ``(after, last]`` with
    ``j * dt >= threshold``; ``last`` when there is none.

    ``j * dt`` is exactly the ``time`` a per-tick loop would compare, so
    this is the tick at which that loop's test first passes.  At tick
    counts far below ``2**52``, rounding moves ``j * dt`` and
    ``threshold / dt`` by far less than one tick, and ``j * dt`` never
    decreases as ``j`` grows, so with
    ``c = ceil(threshold / dt)`` the answer before clamping is ``c - 1``
    when ``(c - 1) * dt`` passes, else ``c`` when ``c * dt`` passes, else
    ``c + 1``.  The arguments broadcast against each other (one entry per
    search); ``threshold`` is never NaN, and ``inf`` finds none.
    """
    ceiling = np.ceil(threshold / dt)
    lower = ceiling - _ONE
    ticks = (lower + (lower * dt < threshold)
             + (ceiling * dt < threshold)).astype(np.int64)
    return np.maximum(np.minimum(ticks, last), after + _ONE_TICK)


# A landing tick that is never reached: no command is pending.
_NEVER = np.iinfo(np.int64).max // 2
# Array constants: a ufunc takes a 0-d array operand faster than a
# Python number, which it converts on every call.
_ONE = np.array(1.0)
_ONE_TICK = np.array(1)
_NO_TICKS = np.array(0)
_MIN_LATENCY = np.array(1e-9)


def _sample_bound(steps: int, dt: float, period: float) -> int:
    """At most how many states an episode samples: one per tick, and one
    per control period after the first (one more absorbs the float sums
    of the periods)."""
    return min(steps, int((steps - 1) * dt / period) + 2)


class EpisodeRunner:
    """One episode (waypoint or recovery): its mission, timing and metrics.

    Usage::

        runner = EpisodeRunner(config, params, mission, soc=soc)
        stepper = runner.run()
        response = None
        while True:
            try:
                request = stepper.send(response)
            except StopIteration:
                break
            solution = solver.solve(request.x0, Xref=request.goal)
            response = (solution.control, solution.iterations)
        result = runner.result

    ``mission`` is either a waypoint :class:`~repro.drone.scenarios.Scenario`
    or a :class:`RecoveryEpisode`.  The generator yields
    :class:`SolveRequest` objects and expects a ``(control, iterations)``
    pair in return.  After exhaustion, :attr:`result` holds the episode's
    :class:`~repro.hil.metrics.ScenarioResult` (waypoint) or
    :class:`~repro.drone.disturbance.RecoveryResult` (recovery).  The same
    runner can instead fly as one column of an :class:`EpisodeBatch`.
    """

    def __init__(self, config, params: DroneParams,
                 scenario: Union[Scenario, RecoveryEpisode],
                 soc: Optional[SoCModel] = None, episode_id: int = 0,
                 plant_params: Optional[DroneParams] = None,
                 faults: Optional[SensorFaults] = None) -> None:
        self.config = config
        self.params = params
        self.scenario = scenario
        self.soc = soc
        self.episode_id = episode_id
        self.faults = faults
        self.is_recovery = isinstance(scenario, RecoveryEpisode)
        # Model mismatch: the *plant* may fly perturbed parameters (payload
        # mass, detuned thrust) while the controller — hover feedforward and
        # the MPC linearization upstream — keeps believing ``params``.
        self.plant_params = plant_params if plant_params is not None else params
        self._result: Optional[EpisodeResult] = None
        if not config.is_ideal and soc is None:
            raise ValueError("non-ideal episodes need a compiled SoCModel")

    @property
    def result(self) -> EpisodeResult:
        if self._result is None:
            raise RuntimeError("episode has not finished; drive run() first")
        return self._result

    def run(self) -> Generator[SolveRequest, Tuple[np.ndarray, int], None]:
        """Fly the episode, yielding a :class:`SolveRequest` per solve.

        The episode flies as an :class:`EpisodeBatch` of one.
        """
        batch = EpisodeBatch([self])
        columns = batch.advance()
        while columns.size:
            control, iterations = yield SolveRequest(
                self.episode_id, float(batch.sample_time[0]),
                batch.x0[0].copy(), batch.goal[0].copy())
            columns = batch.advance(columns, np.asarray(control)[None],
                                    np.array([iterations]))


def _offsets(sizes: Sequence[int]) -> Tuple[np.ndarray, int]:
    """Where each of a run of per-column tables starts when concatenated,
    and their total length."""
    ends = np.cumsum(np.asarray(sizes, dtype=np.int64))
    return ends - sizes, int(ends[-1]) if len(sizes) else 0


class EpisodeBatch:
    """Episodes flown in lockstep, one :class:`QuadrotorBatch` column each.

    The first :meth:`advance` starts every episode; each later call hands
    back the solves of the columns that asked for them.  Either way the
    call flies those columns until each one blocks on a solve or ends, and
    returns the columns that now ask for a solve: their sampled states are
    rows of :attr:`x0`, their goals rows of :attr:`goal`, and their sample
    times entries of :attr:`sample_time`.  An advanced column that asks for
    no solve has finished, and its runner's ``result`` is set.  Each
    physics tick of the flying columns is one :meth:`QuadrotorBatch.tick`.
    """

    def __init__(self, runners: Sequence[EpisodeRunner]) -> None:
        self.runners = runners = list(runners)
        width = len(runners)
        configs = [runner.config for runner in runners]
        self.plant = plant = QuadrotorBatch(
            [runner.plant_params for runner in runners],
            [config.physics_dt for config in configs])
        self._dt = np.array([config.physics_dt for config in configs])
        self._steps = np.array(
            [int(round(runner.scenario.duration / config.physics_dt))
             for runner, config in zip(runners, configs)], dtype=np.int64)
        self._step = np.zeros(width, dtype=np.int64)
        self._event = np.zeros(width, dtype=np.int64)
        self._next_control = np.zeros(width)
        # The tick whose physics first flies the pending command.
        self._landing = np.full(width, _NEVER, dtype=np.int64)
        # Hover thrust, laid out as the plant's command buffer, and each
        # column's pending first input.  A command lands as their sum,
        # written through flat indices: a 1-D fancy index costs a
        # fraction of a 2-D one.
        self._hover = np.zeros((INPUT_DIM, width))
        self._input_rows = np.arange(INPUT_DIM) * width
        self._pending = np.zeros((width, INPUT_DIM))
        self._ideal = np.array([config.is_ideal for config in configs],
                               dtype=bool)
        self._instant = bool(self._ideal.any())
        self._period = np.array([config.physics_dt if config.is_ideal
                                 else config.control_period
                                 for config in configs])
        # SoCModel.solve_latency's factors and the UART legs; ideal columns
        # solve in zero time and never read them.
        timed = [(runner.soc.cycles_per_iteration, runner.soc.frequency_hz,
                  config.uart.downlink_latency, config.uart.uplink_latency)
                 if not config.is_ideal else (0.0, 1.0, 0.0, 0.0)
                 for runner, config in zip(runners, configs)]
        (self._cycles, self._clock_hz, self._downlink,
         self._uplink) = np.array(timed, dtype=np.float64).reshape(
             width, 4).T.copy()
        self._busy = np.zeros(width)
        self._solves = np.zeros(width, dtype=np.int64)
        self.x0 = np.zeros((width, STATE_DIM))
        self.goal = np.zeros((width, STATE_DIM))
        self.sample_time = np.zeros(width)

        samples = [_sample_bound(int(steps), config.physics_dt, period)
                   for steps, config, period in zip(
                       self._steps.tolist(), configs, self._period.tolist())]
        waypoints = []
        for column, runner in enumerate(runners):
            runner._result = None
            scenario = runner.scenario
            if runner.is_recovery:
                start = np.asarray(scenario.hold_position, dtype=np.float64)
                self.goal[column, 0:3] = start
            else:
                start = scenario.start_position
                waypoints.append(column)
            plant.state[:, column] = hover_state(start)
            self._hover[:, column] = hover_input(runner.params)
        plant.command[:] = self._hover

        # Waypoint schedules, padded with never-active entries so every
        # row has one.
        self._waypoint = np.zeros(width, dtype=bool)
        self._waypoint[waypoints] = True
        self._tracking = bool(waypoints)
        count = max([len(runners[column].scenario.waypoints)
                     for column in waypoints], default=0)
        self._activation = np.full((width, count + 1), np.inf)
        self._targets = np.zeros((width, count + 1, 3))
        for column in waypoints:
            schedule = runners[column].scenario.waypoints
            for index, waypoint in enumerate(schedule):
                self._activation[column, index] = waypoint.activation_time
                self._targets[column, index] = waypoint.position

        # Solve logs, for the waypoint results that report them.
        self._log_at = np.zeros(width, dtype=np.int64)
        self._log_at[waypoints], rows = _offsets([samples[column]
                                                  for column in waypoints])
        self._log_times = np.zeros(rows)
        self._log_iterations = np.zeros(rows, dtype=np.int64)

        # Position records: every tick of recovery episodes and of
        # waypoint episodes that keep their trajectory.  A stretch of
        # ticks copies the plant's x, y, z rows into a staging block, one
        # slice per tick, and files them into the records at its end.
        self._record = np.array(
            [runner.is_recovery or config.record_trajectory
             for runner, config in zip(runners, configs)], dtype=bool)
        recording = self._record.nonzero()[0]
        self._record_at = np.zeros(width, dtype=np.int64)
        self._record_at[recording], rows = _offsets(self._steps[recording])
        self._positions = np.empty((rows, 3)) if rows else None
        self._stage = np.empty((0, 3, width))
        self._ramp = np.arange(0)[:, None]
        # Flat index of each column's x, y, z in a (3, width) buffer.
        self._xyz_rows = np.arange(3) * width

        # Wrench windows: the rows of column c's ticks first .. stop - 1,
        # with its outside row before and after them, sit at shift[c] +
        # tick for ticks lower[c] = first - 1 .. upper[c] = stop (both -2
        # without a window).  The outside row is in the plant from the
        # start.
        self._wrench_lower = np.full(width, -2, dtype=np.int64)
        self._wrench_upper = np.full(width, -2, dtype=np.int64)
        self._wrench_shift = np.zeros(width, dtype=np.int64)
        tables, rows = [], 0
        for column, runner in enumerate(runners):
            if not runner.is_recovery:
                continue
            config = configs[column]
            sampler = runner.scenario.disturbance.sampler(
                config.physics_dt, runner.scenario.duration)
            first, table, outside = sampler.wrench_table(
                config.physics_dt, int(self._steps[column]))
            plant.force[:, column] = outside[0:3]
            plant.torque[:, column] = outside[3:6]
            if not len(table):
                continue
            self._wrench_lower[column] = first - 1
            self._wrench_upper[column] = first + len(table)
            self._wrench_shift[column] = rows - (first - 1)
            tables += [outside[None], table, outside[None]]
            rows += len(table) + 2
        self._wrench = np.concatenate(tables) if tables else None

        profiles = [(column, runner.faults, float(self._period[column]),
                     samples[column])
                    for column, runner in enumerate(runners)
                    if runner.faults is not None and not runner.faults.is_null]
        self._faults = (FaultPipelines(width, STATE_DIM, profiles)
                        if profiles else None)

    # -- driving -------------------------------------------------------------
    def advance(self, columns: Optional[np.ndarray] = None,
                controls: Optional[np.ndarray] = None,
                iterations: Optional[np.ndarray] = None) -> np.ndarray:
        """Fly until every advanced column blocks or ends; return the
        ascending columns that ask for a solve.

        The first call takes no arguments and starts every column.  Later
        calls answer ``columns`` (ascending, each with an outstanding
        request): ``controls`` holds their ``(len(columns), m)`` first
        inputs and ``iterations`` their ADMM iteration counts.
        """
        if columns is None:
            columns = np.arange(len(self.runners))
        else:
            self._resume(columns, np.asarray(controls),
                         np.asarray(iterations))
        return self._fly(columns)

    def _on_events(self, columns: np.ndarray, step: np.ndarray
                   ) -> np.ndarray:
        """Bookkeeping of ``columns`` at their event ticks ``step``, before
        those ticks' physics; returns the columns that now ask for a solve.

        An event tick is a column's last tick (it ends) or the first tick
        whose time reaches both its next control tick and its solver's
        release, where it samples its state.  (A command due on that tick
        has landed at the end of the stretch that led to it.)
        """
        ended = step == self._steps[columns]
        if np.count_nonzero(ended):
            for column in columns[ended].tolist():
                self._finish(column, crashed=False)
            columns, step = columns[~ended], step[~ended]
            if not columns.size:
                return columns
        self._sample(columns, step * self._dt[columns])
        return columns

    def _land(self, columns: np.ndarray) -> None:
        """Apply the pending commands of ``columns``."""
        inputs = (self._input_rows + columns[:, None]).ravel()
        self.plant.command.reshape(-1)[inputs] = (
            self._hover.reshape(-1)[inputs]
            + self._pending[columns].ravel())
        self._landing[columns] = _NEVER

    def _sample(self, columns: np.ndarray, time: np.ndarray) -> None:
        """Sample the states and goals ``columns`` ask to be solved from."""
        self.sample_time[columns] = time
        self.x0[columns] = self.plant.state[:, columns].T
        if self._tracking:
            waypoint = self._waypoint[columns]
            if np.count_nonzero(waypoint):
                # The most recently activated waypoint: the one before the
                # first that is not yet active (the first when none is).
                tracking = columns[waypoint]
                later = ~(self._activation[tracking]
                          <= time[waypoint][:, None])
                active = np.maximum(np.argmax(later, axis=1) - 1, 0)
                self.goal[tracking, 0:3] = self._targets[tracking, active]
        if self._faults is not None:
            faulty = columns[self._faults.faulty[columns]]
            if faulty.size:
                self.x0[faulty] = self._faults.observe(faulty,
                                                       self.x0[faulty])

    def _resume(self, columns: np.ndarray, controls: np.ndarray,
                iterations: np.ndarray) -> None:
        """Take the solves ``columns`` blocked on; their ticks' physics is
        next."""
        if np.count_nonzero(iterations < _NO_TICKS):
            raise ValueError("iterations must be non-negative")
        time = self.sample_time[columns]
        # SoCModel.solve_latency, then the end-to-end latency from state
        # sample to applied command (both zero on ideal columns).
        compute = (iterations * self._cycles[columns]
                   / self._clock_hz[columns])
        latency = self._downlink[columns] + compute + self._uplink[columns]
        free = time + np.maximum(latency, _MIN_LATENCY)
        self._pending[columns] = controls
        if self._instant:
            # The ideal policy applies its command now and never holds
            # the solver.
            instant = self._ideal[columns]
            self._land(columns[instant])
            free[instant] = 0.0
        period = self._period[columns]
        next_control = self._next_control[columns] + period
        # If the solve overran one or more control periods, resume on the
        # next period boundary after the solver frees up.
        behind = free > next_control
        if np.count_nonzero(behind):
            next_control[behind] += np.ceil(
                (free[behind] - next_control[behind])
                / period[behind]) * period[behind]
        self._next_control[columns] = next_control
        # The command lands on the first tick whose time reaches it; the
        # next event is the first tick whose time reaches both the next
        # control tick and the solver's release, never before the landing.
        # Both searches run as one, over the columns listed twice.
        twice = np.concatenate((columns, columns))
        ticks = first_ticks(
            np.concatenate((time + latency, np.maximum(next_control, free))),
            self._step[twice], self._steps[twice], self._dt[twice])
        count = len(columns)
        self._landing[columns] = ticks[:count]
        self._event[columns] = ticks[count:]
        if self._instant:
            self._landing[columns[instant]] = _NEVER
        if self._tracking:
            self._busy[columns] += compute
            logged = self._waypoint[columns]
            rows = (self._log_at[columns[logged]]
                    + self._solves[columns[logged]])
            self._log_times[rows] = compute[logged]
            self._log_iterations[rows] = iterations[logged]
            self._solves[columns] += 1

    def _fly(self, columns: np.ndarray) -> np.ndarray:
        asking = []
        step = self._step[columns]
        gap = self._event[columns] - step
        while columns.size:
            gaps = gap.tolist()
            ticks = min(gaps)
            if not ticks:
                if not max(gaps):
                    asking.append(self._on_events(columns, step))
                    break
                at = gap == _NO_TICKS
                asking.append(self._on_events(columns[at], step[at]))
                flying = ~at
                columns, step, gap = columns[flying], step[flying], gap[flying]
                ticks = min(gap.tolist())
            columns, step, gap = self._physics(columns, step, gap, ticks)
        if len(asking) == 1:
            return asking[0]
        return np.sort(np.concatenate(asking)) if asking else columns

    def _physics(self, columns: np.ndarray, step: np.ndarray,
                 gap: np.ndarray, ticks: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fly ``columns``, at ticks ``step`` and ``gap`` ticks before
        their next events, for ``ticks`` ticks.

        Returns the columns still flying with their new ticks and gaps; a
        crash ends its episode on the tick it happens and cuts the stretch
        short for the rest.
        """
        plant = self.plant
        start, span = step, np.array(ticks)
        # Commands landing on the stretch's ticks, by offset.  One due on
        # the tick after the stretch lands at its end, before any event
        # there samples the state.
        due = self._landing[columns] - step
        landing = due <= span
        lands = bool(np.count_nonzero(landing))
        if lands:
            landers, due = columns[landing], due[landing]
            offsets = set(due.tolist())
        recording = False
        if self._positions is not None:
            recorders = self._record[columns]
            recording = np.count_nonzero(recorders)
            if recording:
                if recording == len(columns):
                    recorders = slice(None)
                if len(self._stage) < ticks:
                    self._stage = np.empty((ticks, 3, plant.width))
                    self._ramp = np.arange(ticks)[:, None]
                stage = self._stage
                position = plant.state[0:3]
        # Columns whose wrench window (or the outside rows around it)
        # meets this stretch, and the table row of each of their ticks.
        blows = False
        if self._wrench is not None:
            lower = self._wrench_lower[columns]
            upper = self._wrench_upper[columns]
            gusty = (upper >= step) & (lower < step + span)
            blows = bool(np.count_nonzero(gusty))
            if blows:
                # Each tick's forces and torques, ordered as the flat
                # indices of the disturbed columns' wrench entries.
                disturbed = columns[gusty]
                rows = self._wrench_shift[disturbed] + np.minimum(np.maximum(
                    step[gusty] + np.arange(ticks)[:, None], lower[gusty]),
                    upper[gusty])
                forces = self._wrench[rows, 0:3].reshape(ticks, -1)
                torques = self._wrench[rows, 3:6].reshape(ticks, -1)
                xyz = (self._xyz_rows + disturbed[:, None]).ravel()
                force = plant.force.reshape(-1)
                torque = plant.torque.reshape(-1)
        flown, crashed = ticks, None
        for tick in range(ticks):
            if lands and tick in offsets:
                self._land(landers if len(offsets) == 1
                           else landers[due == tick])
            if blows:
                force[xyz] = forces[tick]
                torque[xyz] = torques[tick]
            crashed = plant.tick(columns)
            if recording:
                stage[tick] = position
            if crashed:
                flown = tick + 1
                break
        if flown < ticks:
            span = np.array(flown)
        step = step + span
        self._step[columns] = step
        if recording:
            # The stretch's ticks of each recorder, as record rows (a
            # crashed column's included).
            filed = columns[recorders]
            targets = (self._record_at[filed] + start[recorders]
                       + self._ramp[:flown])
            self._positions[targets] = stage[:flown, :, filed].transpose(
                0, 2, 1)
        if crashed:
            for column in crashed:
                self._finish(column, crashed=True)
            flying = ~np.isin(columns, crashed)
            columns, step, gap = columns[flying], step[flying], gap[flying]
            if lands:
                flying = ~np.isin(landers, crashed)
                landers, due = landers[flying], due[flying]
                offsets = set(due.tolist())
        if lands and flown in offsets:
            self._land(landers if len(offsets) == 1
                       else landers[due == flown])
        return columns, step, gap - span

    # -- results -------------------------------------------------------------
    def _finish(self, column: int, crashed: bool) -> None:
        """Set the result of ``column``'s episode once it has stopped
        flying."""
        runner = self.runners[column]
        config = runner.config
        scenario = runner.scenario
        dt = config.physics_dt
        ticks = int(self._step[column])
        # The time of the last physics tick flown (0.0 if none was).
        time = (ticks - 1) * dt if ticks else 0.0
        positions = None
        if self._record[column] and ticks:
            row = int(self._record_at[column])
            positions = self._positions[row:row + ticks]
        if runner.is_recovery:
            disturbance = scenario.disturbance
            result = analyze_recovery(
                np.arange(ticks) * dt,
                positions if positions is not None else [],
                scenario.hold_position, disturbance.end_time,
                disturbance_start=disturbance.start_time)
            result.disturbance = disturbance
            if crashed:
                result.recovered = False
                result.time_to_recovery = None
            runner._result = result
            return

        plant = self.plant
        flight_time = max(time, dt)
        final_distance = float(np.linalg.norm(
            plant.state[0:3, column] - scenario.final_waypoint.as_array()))
        success = (not crashed) and final_distance <= config.waypoint_tolerance

        if config.is_ideal:
            soc_power = 0.0
        else:
            activity = min(float(self._busy[column]) / flight_time, 1.0)
            soc_power = runner.soc.power(activity)

        start = int(self._log_at[column])
        stop = start + int(self._solves[column])
        # RecoveryResult carries no power metrics; the plant meters every
        # column anyway, and only waypoint episodes read it.
        energy = float(plant.energy[column])
        runner._result = ScenarioResult(
            scenario=scenario,
            implementation=config.implementation,
            frequency_mhz=config.frequency_mhz,
            success=success,
            crashed=crashed,
            final_distance=final_distance,
            solve_times=self._log_times[start:stop].tolist(),
            solve_iterations=self._log_iterations[start:stop].tolist(),
            actuation_power_w=energy / flight_time,
            soc_power_w=soc_power,
            flight_time_s=flight_time,
            positions=positions.copy() if positions is not None else None,
        )
