"""Rotor power model.

The paper models the dominant contributor to system power — rotor (actuator)
power — with momentum theory (Equation 4):

    P_ind = T^(3/2) / sqrt(2 * rho * A)

where T is the thrust produced by a rotor, A the propeller disk area, and
rho the air density.  We additionally account for a motor/ESC electrical
efficiency so the reported figures are electrical watts rather than ideal
induced power; the efficiency is a constant factor and therefore does not
change any of the paper's relative comparisons.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .variants import AIR_DENSITY, DroneParams

__all__ = ["induced_power", "rotor_power", "total_actuation_power",
           "actuation_power_fn", "power_denominator", "hover_power",
           "ELECTRICAL_EFFICIENCY"]

#: Motor/ESC electrical efficiency: electrical watts per induced watt.
ELECTRICAL_EFFICIENCY = 0.55


def induced_power(thrust: float, disk_area: float,
                  air_density: float = AIR_DENSITY) -> float:
    """Ideal induced power of one rotor producing ``thrust`` Newtons (Eq. 4)."""
    thrust = max(float(thrust), 0.0)
    return thrust ** 1.5 / np.sqrt(2.0 * air_density * disk_area)


def rotor_power(thrust: float, params: DroneParams,
                electrical_efficiency: float = ELECTRICAL_EFFICIENCY) -> float:
    """Electrical power drawn by one rotor at a given thrust."""
    if not 0.0 < electrical_efficiency <= 1.0:
        raise ValueError("electrical_efficiency must be in (0, 1]")
    return induced_power(thrust, params.rotor_disk_area) / electrical_efficiency


def total_actuation_power(thrusts: Sequence[float], params: DroneParams,
                          electrical_efficiency: float = ELECTRICAL_EFFICIENCY
                          ) -> float:
    """Total electrical actuation power for all four rotors."""
    return float(sum(rotor_power(t, params, electrical_efficiency) for t in thrusts))


def power_denominator(params: DroneParams) -> float:
    """``sqrt(2 rho A)``, the per-airframe constant of Eq. 4."""
    return float(np.sqrt(2.0 * AIR_DENSITY * params.rotor_disk_area))


def actuation_power_fn(params: DroneParams,
                       electrical_efficiency: float = ELECTRICAL_EFFICIENCY):
    """A hoisted-constant closure computing :func:`total_actuation_power`.

    The HIL episode loop evaluates actuation power every physics tick;
    recomputing ``sqrt(2 rho A)`` and re-validating the efficiency per tick
    is pure overhead.  The closure performs the exact same operations in
    the exact same order (``(t^1.5 / sqrt(2 rho A)) / eta``, summed
    left-to-right from 0.0), so its results are bit-identical to the
    per-call formulation — ``tests/drone/test_drone.py`` pins this.
    """
    if not 0.0 < electrical_efficiency <= 1.0:
        raise ValueError("electrical_efficiency must be in (0, 1]")
    denominator = power_denominator(params)

    def total(thrusts: Sequence[float]) -> float:
        power = 0.0
        for thrust in thrusts:
            thrust = max(float(thrust), 0.0)
            power += (thrust ** 1.5 / denominator) / electrical_efficiency
        return float(power)

    return total


def hover_power(params: DroneParams,
                electrical_efficiency: float = ELECTRICAL_EFFICIENCY) -> float:
    """Actuation power in steady hover — the floor the ideal policy approaches."""
    per_rotor = params.hover_thrust_per_rotor()
    return 4.0 * rotor_power(per_rotor, params, electrical_efficiency)
