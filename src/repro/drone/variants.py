"""Drone platform parameter sets.

Table 1 of the paper defines three CrazyFlie-class micro-drone variants:

============  ==========  ==========  ===========
Parameter     CrazyFlie   Hawk        Heron
============  ==========  ==========  ===========
Specialty     Generic     Agility     Hover eff.
Mass          27 g        46 g        35 g
Prop diam.    45 mm       60 mm       90 mm
Arm length    80 mm       80 mm       160 mm
Motor Kv      14000       28000       14000
Battery       1S          2S          2S
============  ==========  ==========  ===========

The derived quantities (inertia, thrust limits, rotor disk area) feed both
the quadrotor dynamics model and the momentum-theory power model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

__all__ = ["DroneParams", "crazyflie", "hawk", "heron", "all_variants", "GRAVITY",
           "AIR_DENSITY"]

GRAVITY = 9.81           # m / s^2
AIR_DENSITY = 1.225      # kg / m^3


@dataclass(frozen=True)
class DroneParams:
    """Mechanical and electrical parameters of a quadrotor platform."""

    name: str
    specialty: str
    mass: float                    # kg
    propeller_diameter: float      # m
    arm_length: float              # m (motor-to-motor across the frame)
    motor_kv: float                # rpm / V
    battery_cells: int
    thrust_to_weight: float        # maximum total thrust / weight
    drag_coefficient: float = 9.2e-7   # rotor drag (yaw) torque per thrust [m]
    motor_time_constant: float = 0.03  # first-order rotor response [s]

    # -- derived geometry -----------------------------------------------------
    @property
    def half_arm(self) -> float:
        """Distance from the body center to each motor axis."""
        return self.arm_length / 2.0

    @property
    def rotor_disk_area(self) -> float:
        """Swept area of a single propeller disk (for momentum theory)."""
        radius = self.propeller_diameter / 2.0
        return math.pi * radius * radius

    # -- derived inertial properties -------------------------------------------
    @property
    def inertia(self) -> np.ndarray:
        """Diagonal body inertia [Ixx, Iyy, Izz] in kg m^2.

        Modeled as point-mass motors at the arm tips plus a central body;
        the coefficients reproduce the published CrazyFlie 2.x inertia
        (~1.4e-5, 1.4e-5, 2.2e-5 kg m^2) and scale physically with mass and
        arm length for the variants.
        """
        lever = self.half_arm / math.sqrt(2.0)
        ixx = 0.65 * self.mass * lever ** 2
        izz = 1.05 * self.mass * lever ** 2
        return np.array([ixx, ixx, izz])

    # -- derived actuator properties --------------------------------------------
    def hover_thrust_total(self) -> float:
        return self.mass * GRAVITY

    def hover_thrust_per_rotor(self) -> float:
        return self.hover_thrust_total() / 4.0

    def max_thrust_total(self) -> float:
        return self.thrust_to_weight * self.mass * GRAVITY

    def max_thrust_per_rotor(self) -> float:
        return self.max_thrust_total() / 4.0

    @property
    def torque_to_thrust(self) -> float:
        """Yaw (drag) torque produced per Newton of rotor thrust, in meters.

        Scales with propeller diameter: larger, slower props produce more
        reaction torque per unit thrust.
        """
        return 0.12 * self.propeller_diameter

    def mixing_matrix(self) -> np.ndarray:
        """Map per-rotor thrusts to [total thrust, tau_x, tau_y, tau_z].

        X-configuration with rotor order (front-right, front-left,
        rear-left, rear-right) and alternating spin directions.
        """
        lever = self.half_arm / math.sqrt(2.0)
        kappa = self.torque_to_thrust
        return np.array([
            [1.0, 1.0, 1.0, 1.0],
            [-lever, lever, lever, -lever],    # roll  (tau_x)
            [-lever, -lever, lever, lever],    # pitch (tau_y) -- front rotors pull nose down
            [-kappa, kappa, -kappa, kappa],    # yaw   (tau_z)
        ])

    # -- misc -------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "specialty": self.specialty,
            "mass_g": self.mass * 1e3,
            "propeller_diameter_mm": self.propeller_diameter * 1e3,
            "arm_length_mm": self.arm_length * 1e3,
            "motor_kv": self.motor_kv,
            "battery_cells": self.battery_cells,
            "hover_thrust_N": self.hover_thrust_total(),
            "max_thrust_N": self.max_thrust_total(),
            "rotor_disk_area_cm2": self.rotor_disk_area * 1e4,
        }


def crazyflie() -> DroneParams:
    """The baseline CrazyFlie 2.x platform (Table 1, column 1)."""
    return DroneParams(
        name="CrazyFlie",
        specialty="Generic",
        mass=0.027,
        propeller_diameter=0.045,
        arm_length=0.080,
        motor_kv=14000.0,
        battery_cells=1,
        thrust_to_weight=1.9,
    )


def hawk() -> DroneParams:
    """Hawk: racing/agility variant — heavier, high-Kv motors, 2S battery."""
    return DroneParams(
        name="Hawk",
        specialty="Agility",
        mass=0.046,
        propeller_diameter=0.060,
        arm_length=0.080,
        motor_kv=28000.0,
        battery_cells=2,
        thrust_to_weight=3.2,
        motor_time_constant=0.015,
    )


def heron() -> DroneParams:
    """Heron: hover-efficiency variant — large slow props, long arms."""
    return DroneParams(
        name="Heron",
        specialty="Hover Efficiency",
        mass=0.035,
        propeller_diameter=0.090,
        arm_length=0.160,
        motor_kv=14000.0,
        battery_cells=2,
        thrust_to_weight=1.8,
        motor_time_constant=0.060,
    )


def all_variants() -> Dict[str, DroneParams]:
    """All Table 1 platforms keyed by name."""
    return {p.name: p for p in (crazyflie(), hawk(), heron())}
