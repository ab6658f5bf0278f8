"""The HIL episode state machine, flown alone or in lockstep with others.

One implementation serves every caller and both episode kinds:

* **waypoint tracking** (:class:`~repro.drone.scenarios.Scenario`) — fly the
  scenario's waypoint schedule; the result is a
  :class:`~repro.hil.metrics.ScenarioResult`;
* **disturbance recovery** (:class:`RecoveryEpisode`) — hold a fixed goal,
  inject the episode's time-varying wrench, record every step's position,
  and run :func:`~repro.drone.disturbance.analyze_recovery` at exhaustion;
  the result is a :class:`~repro.drone.disturbance.RecoveryResult`.

:class:`EpisodeBatch` flies many episodes on one struct-of-arrays plant
(:class:`~repro.drone.quadrotor.QuadrotorBatch`, one column per episode).
Each call advances the episodes it is given until every one of them
blocks on an MPC solve (a :class:`SolveRequest`) or ends.  Every physics
tick is one plant tick over all of those episodes: one call into the
compiled plant (or, without a C toolchain, its scalar arithmetic per
column) steps, crash-checks and meters every one of them.
Per-episode control bookkeeping runs only at an episode's *event ticks*:
a finished solve to apply, a control tick with the solver free, or the
end.  Between events nothing but the physics changes, so the event ticks
are computed ahead with the same ``time >= threshold`` tests a plain
per-tick loop makes.

The fleet scheduler drives one batch over all HIL episodes of a campaign
chunk; :meth:`EpisodeRunner.run` is a batch of one behind a generator that
yields each :class:`SolveRequest` and expects ``(control, iterations)``
back.  Where that solve runs (a scalar
:class:`~repro.tinympc.solver.TinyMPCSolver`, one slot of a
:class:`~repro.tinympc.batch.BatchTinyMPCSolver`) is invisible to the
episode, and a batch column computes exactly what a lone episode does, so
scalar and fleet runs can only diverge through the numbers the solver
returns.

Timing semantics (identical for both kinds)::

    state sampled -> UART downlink -> solve (iterations x cycles / f_clk)
                  -> UART uplink   -> motor command applied

The solver cannot accept a new state while a solve is in flight; if a solve
overruns one or more control periods, the next solve resumes on the first
period boundary after the solver frees up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Dict, Generator, List, Mapping, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from ..drone import (
    Disturbance,
    DroneParams,
    QuadrotorBatch,
    RecoveryResult,
    Scenario,
    analyze_recovery,
    hover_input,
    hover_state,
)
from .faults import FaultyObserver, SensorFaults
from .metrics import ScenarioResult
from .soc import SoCModel

__all__ = ["SolveRequest", "RecoveryEpisode", "EpisodeRunner", "EpisodeBatch",
           "EpisodeResult"]


@dataclass
class SolveRequest:
    """One MPC solve the episode needs before it can keep flying.

    ``episode`` is the id the driver assigned to this episode (the fleet
    scheduler uses it to route the batched solution rows back); ``time`` is
    the episode-local virtual time at which the state was sampled.
    """

    episode: int
    time: float
    x0: np.ndarray           # sampled plant state, shape (state_dim,)
    goal: np.ndarray         # goal state for the active waypoint, (state_dim,)


@dataclass(frozen=True)
class RecoveryEpisode:
    """Mission description of one disturbance-recovery episode (Fig. 17).

    The drone holds ``hold_position``, the ``disturbance`` wrench is
    injected on the physics-tick grid, and the trajectory is analyzed with
    the paper's 5 cm / 250 ms recovery criterion at episode exhaustion.

    ``disturbance`` accepts any wrench event implementing the protocol in
    :mod:`repro.drone.gusts` — a deterministic :class:`Disturbance`, a
    stochastic :class:`~repro.drone.gusts.DrydenGust`, or a 1-cosine
    :class:`~repro.drone.gusts.DiscreteGust`; the runner asks the event for
    its per-episode :meth:`sampler` once and drives the sampled wrench on
    the physics grid.
    """

    disturbance: Disturbance  # or any gusts.py wrench event (duck-typed)
    hold_position: Tuple[float, float, float] = (0.0, 0.0, 0.75)
    duration: float = 3.0


# What EpisodeRunner.result holds after exhaustion, by episode kind.
EpisodeResult = Union[ScenarioResult, RecoveryResult]


def _first_tick(threshold: float, after: int, last: int, dt: float) -> int:
    """The first tick ``j`` in ``(after, last]`` with ``j * dt >= threshold``.

    ``last`` when there is none.  ``j * dt`` is exactly the ``time`` a
    per-tick loop would compare, so this is the tick at which that loop's
    test first passes.
    """
    tick = after + 1
    if tick * dt >= threshold:
        return tick
    if not threshold <= last * dt:
        return last
    tick = max(tick, math.ceil(threshold / dt))
    while tick * dt < threshold:
        tick += 1
    while (tick - 1) * dt >= threshold:
        tick -= 1
    return tick


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
                 soc: Optional[SoCModel] = None, state_dim: int = 12,
                 episode_id: int = 0,
                 plant_params: Optional[DroneParams] = None,
                 faults: Optional[SensorFaults] = None) -> None:
        self.config = config
        self.params = params
        self.scenario = scenario
        self.soc = soc
        self.state_dim = state_dim
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

    # -- helpers ----------------------------------------------------------------
    @property
    def result(self) -> EpisodeResult:
        if self._result is None:
            raise RuntimeError("episode has not finished; drive run() first")
        return self._result

    @property
    def finished(self) -> bool:
        return self._result is not None

    def _goal_state(self, position: np.ndarray) -> np.ndarray:
        goal = np.zeros(self.state_dim)
        goal[0:3] = position
        return goal

    # -- driving the episode alone ---------------------------------------------
    def run(self) -> Generator[SolveRequest, Tuple[np.ndarray, int], None]:
        """Fly the episode, yielding a :class:`SolveRequest` per solve.

        The episode flies as an :class:`EpisodeBatch` of one.
        """
        batch = EpisodeBatch([self])
        requests = batch.advance()
        while requests:
            response = yield requests[0]
            requests = batch.advance({self.episode_id: response})

    # -- the state machine, driven by EpisodeBatch ------------------------------
    def _begin(self, plant: QuadrotorBatch, column: int) -> None:
        """Reset the episode onto ``plant`` column ``column`` at tick 0."""
        config = self.config
        scenario = self.scenario
        self._result = None
        self._plant = plant
        self._column = column
        self._dt = config.physics_dt
        self._steps = int(round(scenario.duration / config.physics_dt))
        self._step = 0
        self._event = 0
        if self.is_recovery:
            start = np.asarray(scenario.hold_position, dtype=np.float64)
            self._goal = self._goal_state(start)
            # One sampler per episode: deterministic events return
            # themselves; stochastic gusts tabulate their seeded realization
            # here.  It writes the plant's wrench columns in place each tick.
            self._wrench = scenario.disturbance.sampler(config.physics_dt,
                                                        scenario.duration)
            self._force = plant.force[:, column]
            self._torque = plant.torque[:, column]
        else:
            start = scenario.start_position
            self._goal = None
            self._wrench = None
        plant.state[:, column] = hover_state(start)
        self._hover = hover_input(self.params)
        plant.command[:, column] = self._hover
        self._positions = (np.empty((self._steps, 3))
                           if self.is_recovery or config.record_trajectory
                           else None)
        self._pending: Optional[np.ndarray] = None
        self._pending_ready = 0.0
        self._solver_free = 0.0
        self._next_control = 0.0
        self._solve_times: List[float] = []
        self._solve_iterations: List[int] = []
        self._compute_busy = 0.0
        self._control_period = (config.physics_dt if config.is_ideal
                                else config.control_period)
        # The fault pipeline sits between the plant and the solver: only the
        # sampled state handed to SolveRequest is corrupted — the recorded
        # trajectory, crash detector, and recovery analysis all see truth.
        self._observer: Optional[FaultyObserver] = None
        if self.faults is not None and not self.faults.is_null:
            self._observer = FaultyObserver(self.faults, self._control_period,
                                            self.state_dim)

    def _next_event(self) -> int:
        """The next tick at which a solve lands, one starts, or the end."""
        step, last, dt = self._step, self._steps, self._dt
        event = _first_tick(max(self._next_control, self._solver_free),
                            step, last, dt)
        if self._pending is not None:
            event = min(event, _first_tick(self._pending_ready, step, last, dt))
        return event

    def _on_event(self) -> Optional[SolveRequest]:
        """Bookkeeping at an event tick, before that tick's physics.

        Returns the request the episode blocks on, or ``None`` when it flies
        on (or has ended: then :attr:`finished` is set).
        """
        step = self._step
        if step == self._steps:
            self._finish(crashed=False)
            return None
        time = step * self._dt
        # Apply a completed solve.
        if self._pending is not None and time >= self._pending_ready:
            self._plant.command[:, self._column] = self._hover + self._pending
            self._pending = None
        # Kick off a new solve at control ticks once the solver is free.
        if time >= self._next_control and time >= self._solver_free:
            if not self.is_recovery:
                waypoint = self.scenario.active_waypoint(time)
                self._goal = self._goal_state(waypoint.as_array())
            sampled = self._plant.state[:, self._column].copy()
            if self._observer is not None:
                sampled = self._observer.observe(sampled)
            self._sample_time = time
            return SolveRequest(self.episode_id, time, sampled, self._goal)
        self._event = self._next_event()
        return None

    def _resume(self, control: np.ndarray, iterations: int) -> None:
        """Take the solve the episode blocked on; its tick's physics is next."""
        config = self.config
        time = self._sample_time
        if config.is_ideal:
            compute_only = latency = 0.0
        else:
            # End to end, from state sample to applied command.
            compute_only = self.soc.solve_latency(iterations)
            latency = (config.uart.downlink_latency + compute_only
                       + config.uart.uplink_latency)
        self._solve_times.append(compute_only)
        self._solve_iterations.append(iterations)
        self._compute_busy += compute_only
        if config.is_ideal:
            self._plant.command[:, self._column] = self._hover + control
        else:
            self._pending = control
            self._pending_ready = time + latency
            self._solver_free = time + max(latency, 1e-9)
        self._next_control += self._control_period
        # If the solve overran one or more control periods, resume on the
        # next period boundary after the solver frees up.
        if self._solver_free > self._next_control:
            periods_behind = int(np.ceil(
                (self._solver_free - self._next_control) / self._control_period))
            self._next_control += periods_behind * self._control_period
        self._event = self._next_event()

    def _finish(self, crashed: bool) -> None:
        """Build the result once the episode has flown ``self._step`` ticks."""
        config = self.config
        scenario = self.scenario
        ticks = self._step
        # The time of the last physics tick flown (0.0 if none was).
        time = (ticks - 1) * self._dt if ticks else 0.0
        positions = (self._positions[:ticks]
                     if self._positions is not None and ticks else None)
        if self.is_recovery:
            disturbance = scenario.disturbance
            result = analyze_recovery(
                [tick * self._dt for tick in range(ticks)],
                positions if positions is not None else [],
                scenario.hold_position, disturbance.end_time,
                disturbance_start=disturbance.start_time)
            result.disturbance = disturbance
            if crashed:
                result.recovered = False
                result.time_to_recovery = None
            self._result = result
            return

        flight_time = max(time, config.physics_dt)
        final_distance = float(np.linalg.norm(
            self._plant.state[0:3, self._column]
            - scenario.final_waypoint.as_array()))
        success = (not crashed) and final_distance <= config.waypoint_tolerance

        if config.is_ideal:
            soc_power = 0.0
        else:
            activity = min(self._compute_busy / flight_time, 1.0)
            soc_power = self.soc.power(activity)

        # RecoveryResult carries no power metrics; the plant meters every
        # column anyway, and only waypoint episodes read it.
        energy = float(self._plant.energy[self._column])
        self._result = ScenarioResult(
            scenario=scenario,
            implementation=config.implementation,
            frequency_mhz=config.frequency_mhz,
            success=success,
            crashed=crashed,
            final_distance=final_distance,
            solve_times=self._solve_times,
            solve_iterations=self._solve_iterations,
            actuation_power_w=energy / flight_time,
            soc_power_w=soc_power,
            flight_time_s=flight_time,
            positions=positions,
        )


class EpisodeBatch:
    """Episodes flown in lockstep, one :class:`QuadrotorBatch` column each.

    ``runners`` must carry distinct ``episode_id`` values.  The first
    :meth:`advance` starts every episode; each later call resumes the
    episodes whose solves it is handed.  Either way the call flies those
    episodes until each one blocks on a solve or ends, and returns the new
    requests; an advanced episode that asks for no solve has finished.
    Each physics tick of the flying episodes is one
    :meth:`QuadrotorBatch.tick`.
    """

    def __init__(self, runners: Sequence[EpisodeRunner]) -> None:
        self.runners = list(runners)
        self.plant = QuadrotorBatch(
            [runner.plant_params for runner in self.runners],
            [runner.config.physics_dt for runner in self.runners])
        self._columns: Dict[int, int] = {
            runner.episode_id: column
            for column, runner in enumerate(self.runners)}
        self._started = False

    def advance(self, responses: Optional[Mapping[int, Tuple[np.ndarray, int]]]
                = None) -> List[SolveRequest]:
        """Fly until every advanced episode blocks or ends.

        ``responses`` maps episode ids to the ``(control, iterations)``
        answering their outstanding requests; the first call takes none.
        """
        if not self._started:
            self._started = True
            for column, runner in enumerate(self.runners):
                runner._begin(self.plant, column)
            columns = list(range(len(self.runners)))
        else:
            columns = []
            for episode_id, (control, iterations) in responses.items():
                column = self._columns[episode_id]
                self.runners[column]._resume(control, iterations)
                columns.append(column)
            columns.sort()
        return self._fly(columns)

    def _fly(self, columns: List[int]) -> List[SolveRequest]:
        runners = self.runners
        requests = []
        while columns:
            flying = []
            for column in columns:
                runner = runners[column]
                if runner._step == runner._event:
                    request = runner._on_event()
                    if request is not None:
                        requests.append(request)
                        continue
                    if runner._result is not None:
                        continue
                flying.append(column)
            if not flying:
                break
            ticks = min(runners[column]._event - runners[column]._step
                        for column in flying)
            columns = self._physics(flying, ticks)
        return requests

    def _physics(self, columns: List[int], ticks: int) -> List[int]:
        """Fly ``columns`` for ``ticks`` event-free ticks.

        Returns the columns still flying; a crash ends its episode on the
        tick it happens and cuts the stretch short for the rest.
        """
        runners = self.runners
        plant = self.plant
        gusts = [runners[column] for column in columns
                 if runners[column]._wrench is not None]
        recorders = [(runners[column], plant.state[0:3, column])
                     for column in columns
                     if runners[column]._positions is not None]
        for tick in range(ticks):
            for runner in gusts:
                runner._wrench.wrench_into(
                    (runner._step + tick) * runner._dt, runner._dt,
                    runner._force, runner._torque)
            crashed = plant.tick(columns)
            for runner, position in recorders:
                runner._positions[runner._step + tick] = position
            if crashed:
                for column in columns:
                    runners[column]._step += tick + 1
                for column in crashed:
                    runners[column]._finish(crashed=True)
                return [column for column in columns if column not in crashed]
        for column in columns:
            runners[column]._step += ticks
        return columns
