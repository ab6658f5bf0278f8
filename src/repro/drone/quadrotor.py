"""Nonlinear quadrotor rigid-body simulator.

This is the substitute for gym-pybullet-drones in the paper's
hardware-in-the-loop setup: a 12-state quadrotor (position, Euler attitude,
linear velocity, body angular rate) with first-order rotor dynamics,
integrated with RK4.  The same model is linearized about hover to produce
the MPC problem's (A, B) matrices, so the controller and the plant are
consistent.

State layout (12,):
    [0:3]   position p = [x, y, z]           world frame, meters
    [3:6]   attitude  = [roll, pitch, yaw]   radians
    [6:9]   velocity v = [vx, vy, vz]        world frame, m/s
    [9:12]  body rate w = [p, q, r]          rad/s

Input layout (4,): per-rotor thrust in Newtons (absolute, not delta).

Two plants share one arithmetic.  :class:`Quadrotor` is one airframe, the
scalar reference and the linearization plant.  :class:`QuadrotorBatch`
holds ``B`` airframes as struct-of-arrays columns and advances any subset
of them by one tick per call: one call into compiled C
(:mod:`repro.drone.compiled_plant`) that performs the scalar code's IEEE
operations in the same order, or, without a C toolchain, the scalar
arithmetic per column.  Either way a column's trajectory equals a
:class:`Quadrotor`'s bit for bit (``tests/drone/test_quadrotor_batch.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .rotor import actuation_power_fn
from .variants import DroneParams, GRAVITY

__all__ = ["QuadrotorState", "Quadrotor", "QuadrotorBatch", "hover_state",
           "hover_input"]

POSITION = slice(0, 3)
ATTITUDE = slice(3, 6)
VELOCITY = slice(6, 9)
BODY_RATE = slice(9, 12)

STATE_DIM = 12
INPUT_DIM = 4


@dataclass
class QuadrotorState:
    """Convenience view over the flat 12-element state vector."""

    vector: np.ndarray

    @property
    def position(self) -> np.ndarray:
        return self.vector[POSITION]

    @property
    def attitude(self) -> np.ndarray:
        return self.vector[ATTITUDE]

    @property
    def velocity(self) -> np.ndarray:
        return self.vector[VELOCITY]

    @property
    def body_rate(self) -> np.ndarray:
        return self.vector[BODY_RATE]

    def copy(self) -> "QuadrotorState":
        return QuadrotorState(self.vector.copy())


def hover_state(position: Optional[np.ndarray] = None) -> np.ndarray:
    """A level hover state at a given position (default: origin)."""
    state = np.zeros(STATE_DIM)
    if position is not None:
        state[POSITION] = np.asarray(position, dtype=np.float64)
    return state


def hover_input(params: DroneParams) -> np.ndarray:
    """Per-rotor thrusts that exactly balance gravity."""
    return np.full(INPUT_DIM, params.hover_thrust_per_rotor())


def rotation_matrix(rpy: np.ndarray) -> np.ndarray:
    """Body-to-world rotation matrix from roll/pitch/yaw (ZYX convention)."""
    roll, pitch, yaw = rpy
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    return np.array([
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])


def euler_rate_matrix(rpy: np.ndarray) -> np.ndarray:
    """Map body angular rates to Euler angle rates (ZYX convention)."""
    roll, pitch, _ = rpy
    cr, sr = np.cos(roll), np.sin(roll)
    cp = np.cos(pitch)
    # Guard against the pitch singularity; the drone never flies there in
    # these scenarios, but a disturbance sweep can push states far out.
    cp = np.sign(cp) * max(abs(cp), 1e-6) if cp != 0 else 1e-6
    tp = np.sin(pitch) / cp
    return np.array([
        [1.0, sr * tp, cr * tp],
        [0.0, cr, -sr],
        [0.0, sr / cp, cr / cp],
    ])


# Crash thresholds of Quadrotor.has_crashed, shared by the batch plant.
MAX_TILT = 1.2
MIN_ALTITUDE = -0.05
MAX_DISTANCE = 25.0

# What the compiled tick reports per listed column (0: flying on): it
# crashed; it lies within round-off of MAX_DISTANCE, where _crashed decides;
# it was handed back unwritten, to replay on the scalar arithmetic.
CRASHED, NEAR_RADIUS, REPLAY = 1, 2, 3


def _airframe(params: DroneParams, dt: float, rotor_dynamics: bool = True):
    """The constants one RK4 tick reads, as a flat tuple of Python floats.

    ``(mass, ixx, iyy, izz, mix0, mix1, mix2, mix3, max_thrust, alpha,
    dt, dt/2, dt/6)`` with the mixing-matrix rows as 4-tuples and
    ``alpha`` (the rotor-lag blend) ``None`` without rotor dynamics.
    """
    ixx, iyy, izz = (float(v) for v in params.inertia)
    mix = tuple(tuple(float(v) for v in row) for row in params.mixing_matrix())
    alpha = None
    if rotor_dynamics:
        alpha = min(dt / max(params.motor_time_constant, dt), 1.0)
    return ((float(params.mass), ixx, iyy, izz) + mix
            + (float(params.max_thrust_per_rotor()), alpha, dt, 0.5 * dt,
               dt / 6.0))


def _derivatives(s, thrust, tx, ty, tz, fx, fy, fz, ex, ey, ez,
                 mass, ixx, iyy, izz):
    """Continuous-time derivative as a 12-tuple of Python floats.

    ``s`` is a 12-element sequence of floats; ``thrust, tx, ty, tz`` is the
    rotor wrench (mixing matrix times thrusts) and ``f*``/``e*`` the
    external force and torque.  Written as scalar arithmetic (no
    intermediate matrix builds, numpy dispatch, or array allocation);
    expressions follow left-to-right dot-product order and agree with the
    matrix formulation to summation-order round-off (~1e-14), which
    ``tests/drone/test_drone.py`` pins.
    """
    roll = s[3]
    pitch = s[4]
    yaw = s[5]
    vx = s[6]
    vy = s[7]
    vz = s[8]
    wx = s[9]
    wy = s[10]
    wz = s[11]

    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)

    # thrust_world = R @ [0, 0, thrust]: only R's third column survives
    # (the zero terms vanish exactly in floating point).
    tw_x = (cy * sp * cr + sy * sr) * thrust
    tw_y = (sy * sp * cr - cy * sr) * thrust
    tw_z = (cp * cr) * thrust
    ax = (tw_x + fx) / mass
    ay = (tw_y + fy) / mass
    az = (tw_z + fz) / mass - GRAVITY
    # Simple linear aerodynamic drag keeps velocities bounded.
    ax -= 0.05 * vx / mass
    ay -= 0.05 * vy / mass
    az -= 0.05 * vz / mass

    # omega_dot = (torque + ext - omega x (I omega)) / I
    hx, hy, hz = ixx * wx, iyy * wy, izz * wz
    wd_x = (tx + ex - (wy * hz - wz * hy)) / ixx
    wd_y = (ty + ey - (wz * hx - wx * hz)) / iyy
    wd_z = (tz + ez - (wx * hy - wy * hx)) / izz

    # rpy_dot = euler_rate_matrix(rpy) @ omega (with the same pitch
    # singularity guard as euler_rate_matrix).
    cp_safe = (math.copysign(max(abs(cp), 1e-6), cp) if cp != 0 else 1e-6)
    tp = sp / cp_safe
    rpy_x = 1.0 * wx + sr * tp * wy + cr * tp * wz
    rpy_y = 0.0 * wx + cr * wy + -sr * wz
    rpy_z = 0.0 * wx + sr / cp_safe * wy + cr / cp_safe * wz

    return (vx, vy, vz, rpy_x, rpy_y, rpy_z,
            ax, ay, az, wd_x, wd_y, wd_z)


def _rk4(s, rotors, command, force, torque, frame):
    """One physics tick on Python floats: ``(state list, rotor 4-tuple)``.

    Thrust clipping is ``min(max(c, 0), limit)``, then rotor lag, then the
    four-stage RK4 combination, each stage sum left to right per element.
    The rotor wrench is computed once: the thrusts are fixed over a step.
    """
    (mass, ixx, iyy, izz, mix0, mix1, mix2, mix3, limit, alpha, dt, half,
     sixth) = frame
    c0 = min(max(command[0], 0.0), limit)
    c1 = min(max(command[1], 0.0), limit)
    c2 = min(max(command[2], 0.0), limit)
    c3 = min(max(command[3], 0.0), limit)
    if alpha is None:
        r0, r1, r2, r3 = c0, c1, c2, c3
    else:
        r0 = rotors[0] + alpha * (c0 - rotors[0])
        r1 = rotors[1] + alpha * (c1 - rotors[1])
        r2 = rotors[2] + alpha * (c2 - rotors[2])
        r3 = rotors[3] + alpha * (c3 - rotors[3])
    t0 = min(max(r0, 0.0), limit)
    t1 = min(max(r1, 0.0), limit)
    t2 = min(max(r2, 0.0), limit)
    t3 = min(max(r3, 0.0), limit)
    # wrench = mix @ thrusts, row by row in dot-product order
    thrust = mix0[0] * t0 + mix0[1] * t1 + mix0[2] * t2 + mix0[3] * t3
    tx = mix1[0] * t0 + mix1[1] * t1 + mix1[2] * t2 + mix1[3] * t3
    ty = mix2[0] * t0 + mix2[1] * t1 + mix2[2] * t2 + mix2[3] * t3
    tz = mix3[0] * t0 + mix3[1] * t1 + mix3[2] * t2 + mix3[3] * t3
    fx, fy, fz = force
    ex, ey, ez = torque

    k1 = _derivatives(s, thrust, tx, ty, tz, fx, fy, fz, ex, ey, ez,
                      mass, ixx, iyy, izz)
    stage = [a + half * b for a, b in zip(s, k1)]
    k2 = _derivatives(stage, thrust, tx, ty, tz, fx, fy, fz, ex, ey, ez,
                      mass, ixx, iyy, izz)
    stage = [a + half * b for a, b in zip(s, k2)]
    k3 = _derivatives(stage, thrust, tx, ty, tz, fx, fy, fz, ex, ey, ez,
                      mass, ixx, iyy, izz)
    stage = [a + dt * b for a, b in zip(s, k3)]
    k4 = _derivatives(stage, thrust, tx, ty, tz, fx, fy, fz, ex, ey, ez,
                      mass, ixx, iyy, izz)
    state = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)]
    return state, (r0, r1, r2, r3)


def _crashed(s, max_tilt: float = MAX_TILT, min_altitude: float = MIN_ALTITUDE,
             max_distance: float = MAX_DISTANCE) -> bool:
    """Crash test on a 12-list of floats: tilt, ground hit, fly-away, NaN.

    The fly-away distance is ``sqrt(p . p)`` with ``p . p`` as ``np.dot``
    sums it: its BLAS kernel rounds differently from ``x*x + y*y + z*z``
    on about a fifth of all vectors, which can only matter within
    round-off of the radius, so only there is ``np.dot`` called.
    """
    if abs(s[3]) > max_tilt or abs(s[4]) > max_tilt:
        return True
    if s[2] < min_altitude:
        return True
    x, y, z = s[0], s[1], s[2]
    squared = x * x + y * y + z * z
    radius_squared = max_distance * max_distance
    if abs(squared - radius_squared) <= 1e-12 * radius_squared:
        position = s[0:3]
        squared = float(np.dot(position, position))
    if math.sqrt(squared) > max_distance:
        return True
    # A finite sum proves every term finite; only an overflowing or
    # non-finite state needs the per-element check.
    return not math.isfinite(sum(s)) and not all(map(math.isfinite, s))


class Quadrotor:
    """Nonlinear quadrotor plant with first-order rotor lag.

    ``params`` is treated as frozen after construction: the derived
    quantities the RK4 loop needs (mass, inertia, mixing matrix, thrust
    limit) are cached at ``__init__``.  Build a new :class:`Quadrotor` to
    fly a different variant rather than reassigning ``plant.params``.
    """

    def __init__(self, params: DroneParams, dt: float = 0.004,
                 rotor_dynamics: bool = True) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.params = params
        self.dt = dt
        self.rotor_dynamics = rotor_dynamics
        self.state = hover_state()
        self.rotor_thrusts = hover_input(params)
        self.time = 0.0
        self._external_force = np.zeros(3)
        self._external_torque = np.zeros(3)
        # The physics step runs every tick of every episode, so its
        # per-call derived parameters are hoisted out of the RK4 loop.
        self._frame = _airframe(params, dt, rotor_dynamics)

    # -- configuration ---------------------------------------------------------
    def reset(self, state: Optional[np.ndarray] = None) -> np.ndarray:
        self.state = hover_state() if state is None else np.asarray(state, float).copy()
        self.rotor_thrusts = hover_input(self.params)
        self.time = 0.0
        self.clear_disturbance()
        return self.state.copy()

    def set_disturbance(self, force: Optional[np.ndarray] = None,
                        torque: Optional[np.ndarray] = None) -> None:
        """Apply a constant external force/torque until cleared."""
        self._external_force = (np.zeros(3) if force is None
                                else np.asarray(force, dtype=np.float64))
        self._external_torque = (np.zeros(3) if torque is None
                                 else np.asarray(torque, dtype=np.float64))

    def clear_disturbance(self) -> None:
        self._external_force = np.zeros(3)
        self._external_torque = np.zeros(3)

    # -- dynamics ----------------------------------------------------------------
    def derivatives(self, state: np.ndarray, thrusts: np.ndarray) -> np.ndarray:
        """Continuous-time state derivative for given rotor thrusts."""
        t0, t1, t2, t3 = (float(value) for value in thrusts[:4])
        mass, ixx, iyy, izz, mix0, mix1, mix2, mix3 = self._frame[:8]
        fx, fy, fz = self._external_force.tolist()
        ex, ey, ez = self._external_torque.tolist()
        return np.array(_derivatives(
            [float(value) for value in state],
            mix0[0] * t0 + mix0[1] * t1 + mix0[2] * t2 + mix0[3] * t3,
            mix1[0] * t0 + mix1[1] * t1 + mix1[2] * t2 + mix1[3] * t3,
            mix2[0] * t0 + mix2[1] * t1 + mix2[2] * t2 + mix2[3] * t3,
            mix3[0] * t0 + mix3[1] * t1 + mix3[2] * t2 + mix3[3] * t3,
            fx, fy, fz, ex, ey, ez, mass, ixx, iyy, izz))

    def step(self, commanded_thrusts: np.ndarray) -> np.ndarray:
        """Advance the simulation by one physics timestep (RK4).

        The whole step — thrust clipping, rotor lag, and the four-stage RK4
        combination — runs as scalar Python arithmetic (:func:`_rk4`) and
        allocates exactly two small arrays (the new ``rotor_thrusts`` and
        ``state``).  Every expression preserves the floating-point
        operation order of the vectorized formulation it replaced, so
        trajectories are bit-for-bit unchanged.
        """
        state, rotors = _rk4(
            self.state.tolist(), self.rotor_thrusts.tolist(),
            np.asarray(commanded_thrusts, dtype=np.float64).tolist(),
            self._external_force.tolist(), self._external_torque.tolist(),
            self._frame)
        self.rotor_thrusts = np.array(rotors)
        self.state = np.array(state)
        self.time += self.dt
        return self.state.copy()

    # -- observation helpers -------------------------------------------------------
    @property
    def position(self) -> np.ndarray:
        return self.state[POSITION].copy()

    @property
    def velocity(self) -> np.ndarray:
        return self.state[VELOCITY].copy()

    @property
    def attitude(self) -> np.ndarray:
        return self.state[ATTITUDE].copy()

    def observe(self) -> np.ndarray:
        """Full-state observation (the HIL setup transmits this over UART)."""
        return self.state.copy()

    def has_crashed(self, max_tilt: float = MAX_TILT,
                    min_altitude: float = MIN_ALTITUDE,
                    max_distance: float = MAX_DISTANCE) -> bool:
        """Heuristic crash detector: excessive tilt, ground hit, or fly-away."""
        return _crashed(self.state.tolist(), max_tilt, min_altitude,
                        max_distance)


class QuadrotorBatch:
    """``B`` independent quadrotors in struct-of-arrays layout.

    Column ``b`` is one plant flying ``params[b]`` at ``dt[b]``:

    * ``state[:, b]`` (12,) and ``rotor_thrusts[:, b]`` (4,);
    * ``command[:, b]``, the commanded thrusts its next tick applies;
    * ``force[:, b]`` / ``torque[:, b]``, its external wrench, which a
      caller may rewrite in place before every tick;
    * ``energy[b]``, the actuation energy drawn so far (power times dt,
      summed per tick).

    These six arrays are written in place and never replaced (assigning
    one raises): the compiled tick holds pointers to them.

    :meth:`tick` advances any subset of columns by one tick in one call
    into compiled C (:mod:`repro.drone.compiled_plant`), bound to the
    buffers once per plant.  Without cffi or a C compiler it runs the
    scalar arithmetic of :class:`Quadrotor` per column instead.  Either
    way a column gets bit for bit the trajectory, rotor thrusts, crash flag
    and per-tick power of a :class:`Quadrotor` with rotor dynamics.
    """

    _BUFFERS = frozenset(("state", "rotor_thrusts", "command", "force",
                          "torque", "energy"))

    def __init__(self, params: Sequence[DroneParams],
                 dt: Sequence[float]) -> None:
        params = list(params)
        dts = [float(value) for value in dt]
        if len(dts) != len(params):
            raise ValueError("need one dt per airframe")
        if not all(value > 0 for value in dts):
            raise ValueError("dt must be positive")
        width = len(params)
        self.params = params
        self.width = width
        self.state = np.zeros((STATE_DIM, width))
        self.rotor_thrusts = np.zeros((INPUT_DIM, width))
        for column, airframe_params in enumerate(params):
            self.rotor_thrusts[:, column] = hover_input(airframe_params)
        self.command = self.rotor_thrusts.copy()
        self.force = np.zeros((3, width))
        self.torque = np.zeros((3, width))
        self.energy = np.zeros(width)
        self._dts = dts
        self._frames = [_airframe(p, value) for p, value in zip(params, dts)]
        self._power = [actuation_power_fn(p) for p in params]
        self._binding = _bind(self)

    def __setattr__(self, name, value) -> None:
        if name in self._BUFFERS and name in self.__dict__:
            raise AttributeError(
                "QuadrotorBatch.{} is written in place, never replaced: the "
                "compiled tick points at it".format(name))
        object.__setattr__(self, name, value)

    def tick(self, columns: Sequence[int]) -> List[int]:
        """Advance ``columns`` (distinct, ascending) by one physics tick.

        Returns the columns that crashed on this tick, in order.  An
        out-of-range column raises ``IndexError`` before any column moves.
        """
        binding = self._binding
        if binding is None:
            return self._tick_scalar(columns)
        count = len(columns)
        binding.columns[:count] = columns
        flagged = binding.tick(binding.struct, count)
        if not flagged:
            return []
        if flagged < 0:
            raise IndexError("plant columns {} out of range for width {}"
                             .format(list(columns), self.width))
        crashed, replay = [], []
        flags = binding.flags
        for index in np.flatnonzero(flags[:count]).tolist():
            column = columns[index]
            if flags[index] == REPLAY:
                replay.append(column)
            elif (flags[index] == CRASHED
                  or _crashed(self.state[:, column].tolist())):
                crashed.append(column)
        if replay:
            # The scalar arithmetic is the reference: it raises where the
            # C handed a column back because Python raises there.
            crashed = sorted(crashed + self._tick_scalar(replay))
        return crashed

    def _tick_scalar(self, columns: Sequence[int]) -> List[int]:
        for column in columns:
            if not 0 <= column < self.width:
                raise IndexError("plant column {} out of range for width {}"
                                 .format(column, self.width))
        crashed = []
        state, rotors = self.state, self.rotor_thrusts
        for column in columns:
            s, r = _rk4(state[:, column].tolist(),
                        rotors[:, column].tolist(),
                        self.command[:, column].tolist(),
                        self.force[:, column].tolist(),
                        self.torque[:, column].tolist(), self._frames[column])
            state[:, column] = s
            rotors[:, column] = r
            self.energy[column] += self._power[column](r) * self._dts[column]
            if _crashed(s):
                crashed.append(column)
        return crashed


def _bind(plant: QuadrotorBatch):
    """``plant``'s binding to the compiled tick, or ``None`` (no cffi or no
    C compiler), which puts it on the scalar arithmetic."""
    # Imported with the first batch plant: processes that build none (a
    # design-space sweep) never load the toolchain code or cffi.
    from . import compiled_plant
    return compiled_plant.bind(plant)

