"""Pre-refactor physics hot path, kept as the scalar rewrite's reference.

The RK4 step, crash detector, and actuation-power evaluation in
:mod:`repro.drone.quadrotor` / :mod:`repro.drone.rotor` were rewritten as
allocation-free scalar arithmetic.  The numpy formulations they replaced
live here as the bit-for-bit regression proof:
``tests/drone/test_physics_reference.py`` steps a plant through both
implementations and asserts identical trajectories (``==``, no
tolerances), so the rewrite preserved every floating-point operation
order.
"""

from __future__ import annotations

import numpy as np

from .rotor import total_actuation_power
from .variants import DroneParams

__all__ = ["vectorized_step", "vectorized_has_crashed",
           "per_call_actuation_power_fn"]


def vectorized_step(self, commanded_thrusts: np.ndarray) -> np.ndarray:
    """The pre-refactor ``Quadrotor.step``: numpy temporaries per RK4 stage."""
    max_thrust = self.params.max_thrust_per_rotor()
    commanded = np.clip(np.asarray(commanded_thrusts, dtype=np.float64),
                        0.0, max_thrust)
    if self.rotor_dynamics:
        alpha = self.dt / max(self.params.motor_time_constant, self.dt)
        alpha = min(alpha, 1.0)
        self.rotor_thrusts = self.rotor_thrusts + alpha * (commanded - self.rotor_thrusts)
    else:
        self.rotor_thrusts = commanded
    thrusts = np.clip(self.rotor_thrusts, 0.0, max_thrust)

    dt = self.dt
    state = self.state
    k1 = self.derivatives(state, thrusts)
    k2 = self.derivatives(state + 0.5 * dt * k1, thrusts)
    k3 = self.derivatives(state + 0.5 * dt * k2, thrusts)
    k4 = self.derivatives(state + dt * k3, thrusts)
    self.state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    self.time += dt
    return self.state.copy()


def vectorized_has_crashed(self, max_tilt: float = 1.2,
                           min_altitude: float = -0.05,
                           max_distance: float = 25.0) -> bool:
    """The pre-refactor ``Quadrotor.has_crashed`` (numpy slicing + norm)."""
    roll, pitch, _ = self.state[3:6]
    if abs(roll) > max_tilt or abs(pitch) > max_tilt:
        return True
    if self.state[2] < min_altitude:
        return True
    if np.linalg.norm(self.state[0:3]) > max_distance:
        return True
    return bool(np.any(~np.isfinite(self.state)))


def per_call_actuation_power_fn(params: DroneParams,
                                electrical_efficiency: float = 0.55):
    """Per-tick power the pre-refactor way: full re-derivation every call."""
    def total(thrusts):
        return total_actuation_power(thrusts, params, electrical_efficiency)
    return total

