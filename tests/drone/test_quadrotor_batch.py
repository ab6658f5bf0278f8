"""The struct-of-arrays plant equals a per-column ``Quadrotor`` bit for bit.

``QuadrotorBatch.tick`` advances any subset of its columns by one physics
tick: one vectorized RK4 step, crash check and power update from
``vector_width`` columns up, the scalar arithmetic of ``Quadrotor`` per
column below.  Every column must match a ``Quadrotor`` flying the same
airframe, dt, commands and wrench, compared with ``==`` (sign of zero
included) on state, rotor thrusts, crash flag and per-tick power, on
both sides of the crossover.

The numerics traps behind that contract, measured on the 2-vCPU Linux
host this suite was written on (numpy 2.4, OpenBLAS):

* ``np.sin``/``np.cos`` matched ``math.sin``/``math.cos`` on 10M samples;
  ``test_trig_matches_math`` is the guard on other hosts.
* ``np.power(t, 1.5)`` differs from ``t ** 1.5`` on about 5 % of inputs,
  so per-tick power stays a Python float power per element.
* ``np.dot(p, p)`` differs from ``x*x + y*y + z*z`` on about 22 % of
  3-vectors; ``np.vecdot`` over rows matches ``np.dot`` exactly, and the
  scalar crash test calls ``np.dot`` within round-off of the radius.
* ``np.maximum(-0.0, 0.0)`` is ``+0.0`` where Python's ``max`` keeps
  ``-0.0``; the vector clip selects on comparisons instead.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drone import (
    Quadrotor,
    QuadrotorBatch,
    actuation_power_fn,
    all_variants,
    hover_input,
    hover_state,
)
from repro.drone.quadrotor import MAX_DISTANCE, _clip_columns
from repro.drone.reference import vectorized_has_crashed

VARIANTS = sorted(all_variants())
MASS_SCALES = (0.8, 1.0, 1.3, 1.5)
DTS = (0.001, 0.002, 0.004)
# Vector path for every subset, the default crossover, scalar path only.
WIDTH_RULES = (1, QuadrotorBatch.vector_width, 10 ** 9)


def airframe(variant, mass_scale):
    nominal = all_variants()[variant]
    return dataclasses.replace(
        nominal, mass=nominal.mass * mass_scale,
        thrust_to_weight=nominal.thrust_to_weight / mass_scale)


def assert_same(actual, expected, what):
    """Equal values, NaN where NaN, and the same sign of every zero."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    np.testing.assert_array_equal(actual, expected, err_msg=what)
    numbers = ~np.isnan(expected)
    np.testing.assert_array_equal(np.signbit(actual[numbers]),
                                  np.signbit(expected[numbers]),
                                  err_msg=what + " (sign of zero)")


def start_state(rng, kind):
    """A column's initial state; ``kind`` picks one of the edge cases."""
    state = hover_state(rng.normal(0.0, 0.5, 3) + [0.0, 0.0, 1.0])
    state[3:12] = rng.normal(0.0, 0.2, 9)
    if kind == "pitch-vertical":
        # No double has cos == 0; +-pi/2 is the closest (|cos| ~ 6e-17),
        # deep inside the 1e-6 guard.
        state[4] = rng.choice([math.pi / 2, -math.pi / 2])
    elif kind == "pitch-guard":
        state[4] = math.pi / 2 + rng.choice([-1.0, 1.0]) * rng.choice(
            [1e-7, 9.9e-7, 1.0e-6, 1.01e-6, 1e-5])
    elif kind == "far":
        direction = rng.normal(size=3)
        state[0:3] = MAX_DISTANCE * direction / np.linalg.norm(direction)
    elif kind == "nan":
        state[rng.integers(12)] = np.nan
    elif kind == "inf":
        # Infinite position or velocity; an infinite angle or body rate
        # makes math.cos raise, covered by test_infinite_angle_raises.
        state[rng.choice([0, 1, 2, 6, 7, 8])] = rng.choice([np.inf, -np.inf])
    return state


def command_for(rng, params):
    hover = hover_input(params)
    roll = rng.random()
    if roll < 0.15:
        return rng.choice([-0.0, 0.0, -1.0, 100.0,
                           params.max_thrust_per_rotor()], 4)
    if roll < 0.2:
        return np.full(4, rng.choice([-0.0, 0.0]))
    return hover + 0.05 * rng.standard_normal(4)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(width=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       rule=st.sampled_from(WIDTH_RULES))
def test_columns_match_quadrotor(width, seed, rule):
    rng = np.random.default_rng(seed)
    params = [airframe(VARIANTS[rng.integers(len(VARIANTS))],
                       MASS_SCALES[rng.integers(len(MASS_SCALES))])
              for _ in range(width)]
    dts = [DTS[rng.integers(len(DTS))] for _ in range(width)]
    plant = QuadrotorBatch(params, dts)
    plant.vector_width = rule
    kinds = ("plain", "plain", "plain", "pitch-vertical", "pitch-guard",
             "far", "nan", "inf")
    references = []
    for column, (p, dt) in enumerate(zip(params, dts)):
        reference = Quadrotor(p, dt=dt)
        reference.reset(start_state(rng, kinds[rng.integers(len(kinds))]))
        plant.state[:, column] = reference.state
        if rng.random() < 0.5:
            force = rng.normal(0.0, 0.05, 3)
            torque = rng.normal(0.0, 1e-4, 3)
            reference.set_disturbance(force, torque)
            plant.force[:, column] = force
            plant.torque[:, column] = torque
        references.append(reference)
    power = [actuation_power_fn(p) for p in params]
    for _ in range(12):
        live = [c for c in range(width) if rng.random() < 0.75]
        for column in live:
            plant.command[:, column] = command_for(rng, params[column])
        before = plant.state.copy()
        plant.energy[:] = 0.0
        crashed = plant.tick(live)
        for column in range(width):
            reference = references[column]
            if column not in live:
                assert_same(plant.state[:, column], before[:, column], "idle")
                assert plant.energy[column] == 0.0
                continue
            reference.step(plant.command[:, column])
            what = "column {} of {}".format(column, width)
            assert_same(plant.state[:, column], reference.state, what)
            assert_same(plant.rotor_thrusts[:, column],
                        reference.rotor_thrusts, what)
            assert (column in crashed) == reference.has_crashed(), what
            assert_same(plant.energy[column],
                        power[column](reference.rotor_thrusts) * dts[column],
                        what + " power")


@pytest.mark.parametrize("rule", WIDTH_RULES)
def test_infinite_angle_raises_like_quadrotor(rule):
    """math.cos raises on an infinite angle where np.cos returns NaN; the
    batch replays such a tick on the scalar path, so it raises too."""
    params = all_variants()["CrazyFlie"]
    reference = Quadrotor(params, dt=0.002)
    state = hover_state([0.0, 0.0, 1.0])
    state[3] = np.inf
    reference.reset(state)
    with pytest.raises(ValueError):
        reference.step(hover_input(params))
    plant = QuadrotorBatch([params] * 12, [0.002] * 12)
    plant.vector_width = rule
    plant.state[:, 5] = state
    with pytest.raises(ValueError):
        plant.tick(list(range(12)))


def test_trig_matches_math():
    """The vector tick is exact only if numpy's sin/cos equal libm's."""
    rng = np.random.default_rng(0)
    angles = np.concatenate([
        rng.normal(0.0, 1.0, 50_000),
        rng.uniform(-1e3, 1e3, 20_000),
        math.pi / 2 + rng.normal(0.0, 1e-6, 5_000),
        [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, 1e-300]])
    rows = angles[: 3 * (angles.size // 3)].reshape(3, -1)
    for values in (angles, rows[1], rows[:, ::7].ravel()):
        assert np.sin(values).tolist() == [math.sin(v) for v in values.tolist()]
        assert np.cos(values).tolist() == [math.cos(v) for v in values.tolist()]


def test_power_stays_on_python_floats():
    """Per-tick power equals the scalar closure even on thrusts where
    ``np.power(t, 1.5)`` rounds differently from ``t ** 1.5``."""
    params = airframe("Hawk", 1.3)
    rng = np.random.default_rng(5)
    pool = rng.uniform(0.0, params.max_thrust_per_rotor(), 4000)
    differs = pool[np.power(pool, 1.5) != np.array([t ** 1.5
                                                     for t in pool.tolist()])]
    thrusts = np.concatenate([differs, pool])[:400].reshape(4, -1)
    width = thrusts.shape[1]
    plant = QuadrotorBatch([params] * width, [0.002] * width)
    plant.state[2] = 1.0
    plant.rotor_thrusts[:] = thrusts
    plant.command[:] = thrusts       # the rotors stay where they are
    plant.tick(list(range(width)))
    closure = actuation_power_fn(params)
    expected = [closure(plant.rotor_thrusts[:, c]) * 0.002
                for c in range(width)]
    assert plant.energy.tolist() == expected


@pytest.mark.parametrize("rule", WIDTH_RULES)
def test_fly_away_radius_sums_like_np_dot(rule):
    """Positions within round-off of the 25 m radius, including ones where
    the left-to-right sum and ``np.dot`` land on different sides."""
    rng = np.random.default_rng(11)
    positions = []
    for _ in range(20_000):
        direction = rng.normal(size=3)
        p = MAX_DISTANCE * direction / np.linalg.norm(direction)
        x, y, z = p.tolist()
        if ((math.sqrt(x * x + y * y + z * z) > MAX_DISTANCE)
                != (math.sqrt(float(np.dot(p, p))) > MAX_DISTANCE)):
            positions.insert(0, p)
        elif len(positions) < 30:
            positions.append(p)
    positions = positions[:30]
    params = all_variants()["CrazyFlie"]
    plant = QuadrotorBatch([params] * len(positions),
                           [0.002] * len(positions))
    plant.vector_width = rule
    references = []
    for column, p in enumerate(positions):
        # At rest in hover the tick moves the position by far less than
        # an ulp, so it stays on its knife edge.
        state = hover_state(p)
        plant.state[:, column] = state
        reference = Quadrotor(params, dt=0.002)
        reference.reset(state)
        references.append(reference)
    crashed = plant.tick(list(range(len(positions))))
    for column, reference in enumerate(references):
        reference.step(plant.command[:, column])
        assert reference.has_crashed() == vectorized_has_crashed(reference)
        assert (column in crashed) == reference.has_crashed()


def test_clip_keeps_the_sign_of_zero():
    values = np.array([[-0.0, 0.0, -1.0, 0.5, 3.0, np.nan, -np.inf, np.inf]])
    limit = 2.0
    expected = [min(max(v, 0.0), limit) for v in values[0].tolist()]
    assert np.maximum(-0.0, 0.0) == 0.0 and not np.signbit(
        np.maximum(-0.0, 0.0))
    assert_same(_clip_columns(values, np.full(values.shape[1], limit))[0],
                expected, "clip")
