"""Closed-loop hardware-in-the-loop system simulation.

This is the Python equivalent of the paper's HIL setup (Figure 14): a
simulated quadrotor (our stand-in for gym-pybullet-drones) is controlled by
TinyMPC "running on" an SoC timing model, with UART latency between the two.
The control pipeline per solve is::

    state sampled -> UART downlink -> solve (iterations x cycles / f_clk)
                  -> UART uplink   -> motor command applied

The solver cannot accept a new state while a solve is in flight, so at low
clock frequencies the effective control rate drops and the applied commands
are stale — which is exactly the mechanism behind the success-rate and
actuator-power degradation in Figure 16.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..arch import SoCPowerModel
from ..drone import (
    Disturbance,
    DroneParams,
    RecoveryResult,
    Scenario,
    crazyflie,
    linearize_hover,
)
from ..tinympc import (MPCProblem, SolverSettings, TinyMPCSolver,
                       build_iteration_program)
from .episode import EpisodeRunner, RecoveryEpisode
from .metrics import ScenarioResult
from .soc import SoCModel
from .uart import UARTLink

__all__ = ["HILConfig", "HILLoop", "build_variant_problem"]


def build_variant_problem(params: DroneParams, control_rate_hz: float = 100.0,
                          horizon: int = 10, rho: float = 5.0) -> MPCProblem:
    """Linearize a drone variant about hover and build its MPC problem.

    This is the per-variant "new linearized models and policies" step of the
    SWaP study (Section 5.4).
    """
    dt = 1.0 / control_rate_hz
    A, B = linearize_hover(params, dt=dt)
    n, m = A.shape[0], B.shape[1]
    q_diag = np.array([100.0, 100.0, 100.0, 4.0, 4.0, 400.0,
                       4.0, 4.0, 4.0, 2.0, 2.0, 4.0])
    Q = np.diag(q_diag[:n])
    R = np.diag(np.full(m, 4.0))
    u_hover = params.hover_thrust_per_rotor()
    return MPCProblem(A=A, B=B, Q=Q, R=R, rho=rho, horizon=horizon,
                      u_min=np.full(m, -u_hover),
                      u_max=np.full(m, params.max_thrust_per_rotor() - u_hover),
                      dt=dt, name="{}-hover-mpc".format(params.name.lower()))


@dataclass
class HILConfig:
    """Configuration of one HIL experiment cell."""

    implementation: str = "vector"        # "scalar", "vector", or "ideal"
    frequency_mhz: float = 100.0
    control_rate_hz: float = 100.0
    physics_dt: float = 0.002
    max_admm_iterations: int = 10
    waypoint_tolerance: float = 0.20      # meters, success radius at the final waypoint
    uart: UARTLink = field(default_factory=UARTLink)
    record_trajectory: bool = False

    @property
    def is_ideal(self) -> bool:
        """The ideal policy solves at every physics step with zero latency."""
        return self.implementation == "ideal"

    @property
    def control_period(self) -> float:
        return 1.0 / self.control_rate_hz


class HILLoop:
    """Closed-loop simulator: drone plant + SoC-timed MPC + UART link."""

    def __init__(self, config: HILConfig,
                 params: Optional[DroneParams] = None,
                 problem: Optional[MPCProblem] = None) -> None:
        self.config = config
        self.params = params or crazyflie()
        self.problem = problem or build_variant_problem(
            self.params, control_rate_hz=config.control_rate_hz)
        self.solver = TinyMPCSolver(
            self.problem,
            SolverSettings(max_iterations=config.max_admm_iterations, warm_start=True))
        if config.is_ideal:
            self.soc: Optional[SoCModel] = None
        else:
            self.soc = SoCModel.from_implementation(config.implementation,
                                                    config.frequency_mhz)
            # Traced with the solver's LQR cache, so the DARE is solved once.
            program = build_iteration_program(self.problem,
                                              cache=self.solver.cache)
            self.soc.compile_problem(self.problem, program=program)

    # -- helpers -----------------------------------------------------------------
    def _episode_runner(self, mission) -> EpisodeRunner:
        """Build the shared episode runner for one mission.

        ``mission`` is either a waypoint :class:`Scenario` or a
        :class:`~repro.hil.episode.RecoveryEpisode`.
        """
        return EpisodeRunner(self.config, self.params, mission, soc=self.soc)

    def _drive_with_scalar_solver(self, runner: EpisodeRunner):
        """Answer a runner's solve requests with this loop's scalar solver."""
        self.solver.reset()
        stepper = runner.run()
        response = None
        while True:
            try:
                request = stepper.send(response)
            except StopIteration:
                break
            solution = self.solver.solve(request.x0, Xref=request.goal)
            response = (solution.control, solution.iterations)
        return runner.result

    # -- main entry points ----------------------------------------------------------
    def run_scenario(self, scenario: Scenario) -> ScenarioResult:
        """Fly one waypoint-tracking scenario and collect metrics.

        The episode itself — plant stepping, UART/solve latency accounting,
        metrics — lives in :class:`~repro.hil.episode.EpisodeRunner`; this
        method merely answers its solve requests with this loop's scalar
        solver.  The fleet scheduler (:mod:`repro.fleet.scheduler`) drives
        the *same* episode implementation, which is what keeps scalar and
        fleet results equivalent; many scenarios with batched solves are a
        campaign (:func:`repro.fleet.run_campaign`).
        """
        return self._drive_with_scalar_solver(self._episode_runner(scenario))

    def run_disturbance(self, disturbance: Disturbance,
                        hold_position: Tuple[float, float, float] = (0.0, 0.0, 0.75),
                        duration: float = 3.0) -> RecoveryResult:
        """Hold position, inject a disturbance, and measure recovery.

        A disturbance episode is driven by the *same*
        :class:`~repro.hil.episode.EpisodeRunner` state machine as waypoint
        scenarios (this method used to carry a hand-copied second timing
        loop); it merely answers the runner's solve requests with this
        loop's scalar solver, exactly like :meth:`run_scenario`.
        """
        mission = RecoveryEpisode(disturbance=disturbance,
                                  hold_position=tuple(hold_position),
                                  duration=duration)
        return self._drive_with_scalar_solver(self._episode_runner(mission))
