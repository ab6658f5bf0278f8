"""The struct-of-arrays plant equals a per-column ``Quadrotor`` bit for bit.

``QuadrotorBatch.tick`` advances any subset of its columns by one physics
tick: one call into compiled C, or, without cffi or a C compiler, the
scalar arithmetic of ``Quadrotor`` per column.  Every test here runs on
both paths (``PATHS``); the fallback is forced by replacing the private
``quadrotor._bind`` seam, and the C cases skip when no toolchain loads.
Every column must match a ``Quadrotor`` flying the same airframe, dt,
commands and wrench, compared with ``==`` (sign of zero included) on
state, rotor thrusts, crash flag and per-tick power.

The C tick performs the scalar code's IEEE operations in its order, on the
libm ``sin``, ``cos``, ``pow`` and ``sqrt`` that Python calls.  Where
Python does something else, the C hands the column back, and each such
case has a test: an infinite stage angle (``math.cos`` raises), a power
``t ** 1.5`` that overflows (Python raises), a position within round-off
of the fly-away radius (``_crashed`` calls ``np.dot`` there), an
out-of-range column, and an assignment that would replace a buffer the C
holds a pointer to.
"""

import dataclasses
import math
import os
import subprocess
import sys

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
from repro.drone import compiled_plant, quadrotor
from repro.drone.quadrotor import MAX_DISTANCE
from repro.drone.reference import vectorized_has_crashed

VARIANTS = sorted(all_variants())
MASS_SCALES = (0.8, 1.0, 1.3, 1.5)
DTS = (0.001, 0.002, 0.004)
PATHS = (
    pytest.param("c", marks=pytest.mark.skipif(
        compiled_plant.library() is None,
        reason="no C toolchain: {}".format(compiled_plant.failure()))),
    "scalar",
)
BUFFERS = ("state", "rotor_thrusts", "command", "force", "torque", "energy")


def make_plant(params, dts, path):
    """A ``QuadrotorBatch`` on the compiled tick or the scalar fallback."""
    with pytest.MonkeyPatch.context() as patch:
        if path == "scalar":
            patch.setattr(quadrotor, "_bind", lambda plant: None)
        plant = QuadrotorBatch(params, dts)
    assert (plant._binding is None) == (path == "scalar")
    return plant


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


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(width=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_columns_match_quadrotor(path, width, seed):
    rng = np.random.default_rng(seed)
    params = [airframe(VARIANTS[rng.integers(len(VARIANTS))],
                       MASS_SCALES[rng.integers(len(MASS_SCALES))])
              for _ in range(width)]
    dts = [DTS[rng.integers(len(DTS))] for _ in range(width)]
    plant = make_plant(params, dts, path)
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


@pytest.mark.parametrize("path", PATHS)
def test_infinite_angle_raises_like_quadrotor(path):
    """math.cos raises on an infinite angle where C's cos returns NaN; the
    C hands such a column back unwritten and the scalar replay raises."""
    params = all_variants()["CrazyFlie"]
    reference = Quadrotor(params, dt=0.002)
    state = hover_state([0.0, 0.0, 1.0])
    state[3] = np.inf
    reference.reset(state)
    with pytest.raises(ValueError):
        reference.step(hover_input(params))
    plant = make_plant([params] * 12, [0.002] * 12, path)
    plant.state[:, 5] = state
    with pytest.raises(ValueError):
        plant.tick(list(range(12)))
    assert_same(plant.state[:, 5], state, "the raising column")


@pytest.mark.parametrize("path", PATHS)
def test_power_overflow_raises_like_python(path):
    """``t ** 1.5`` raises OverflowError where libm's pow returns inf; the
    C hands such a column back and the scalar replay raises."""
    params = all_variants()["CrazyFlie"]
    thrusts = np.full(4, 1e300)
    with pytest.raises(OverflowError):
        actuation_power_fn(params)(thrusts)
    plant = make_plant([params] * 3, [0.002] * 3, path)
    plant.state[2] = 1.0
    plant.rotor_thrusts[:, 1] = thrusts
    with pytest.raises(OverflowError):
        plant.tick([0, 1, 2])
    assert plant.energy[1] == 0.0


@pytest.mark.parametrize("path", PATHS)
def test_power_stays_on_python_floats(path):
    """Per-tick power equals the scalar closure even on thrusts where
    ``np.power(t, 1.5)`` rounds differently from ``t ** 1.5``."""
    params = airframe("Hawk", 1.3)
    rng = np.random.default_rng(5)
    pool = rng.uniform(0.0, params.max_thrust_per_rotor(), 4000)
    differs = pool[np.power(pool, 1.5) != np.array([t ** 1.5
                                                     for t in pool.tolist()])]
    thrusts = np.concatenate([differs, pool])[:400].reshape(4, -1)
    width = thrusts.shape[1]
    plant = make_plant([params] * width, [0.002] * width, path)
    plant.state[2] = 1.0
    plant.rotor_thrusts[:] = thrusts
    plant.command[:] = thrusts       # the rotors stay where they are
    plant.tick(list(range(width)))
    closure = actuation_power_fn(params)
    expected = [closure(plant.rotor_thrusts[:, c]) * 0.002
                for c in range(width)]
    assert plant.energy.tolist() == expected


@pytest.mark.parametrize("path", PATHS)
def test_fly_away_radius_sums_like_np_dot(path):
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
    plant = make_plant([params] * len(positions), [0.002] * len(positions),
                       path)
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


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("columns", [[0, 4], [4], [-1], [0, 2, 9]],
                         ids=["last-at-width", "at-width", "negative",
                              "past-width"])
def test_out_of_range_column_raises_and_moves_nothing(path, columns):
    params = all_variants()["CrazyFlie"]
    plant = make_plant([params] * 4, [0.002] * 4, path)
    plant.state[2] = 1.0
    plant.command[:] = 0.0
    before = [getattr(plant, name).copy() for name in BUFFERS]
    with pytest.raises(IndexError):
        plant.tick(columns)
    for name, array in zip(BUFFERS, before):
        assert_same(getattr(plant, name), array, name)


@pytest.mark.parametrize("path", PATHS)
def test_bound_buffers_cannot_be_replaced(path):
    """The C holds a pointer to each buffer: assigning a new array is
    refused, and in-place writes reach the next tick."""
    params = all_variants()["CrazyFlie"]
    plant = make_plant([params] * 2, [0.002] * 2, path)
    for name in BUFFERS:
        array = getattr(plant, name)
        with pytest.raises(AttributeError, match=name):
            setattr(plant, name, array.copy())
        assert getattr(plant, name) is array
    reference = Quadrotor(params, dt=0.002)
    reference.reset(hover_state([0.0, 0.0, 1.0]))
    reference.set_disturbance(np.array([0.01, 0.0, 0.0]), None)
    plant.state[:, 1] = reference.state
    plant.force[0, 1] = 0.01
    plant.tick([1])
    reference.step(plant.command[:, 1])
    assert_same(plant.state[:, 1], reference.state, "in-place writes")


_LAZY_PROBE = r"""
import sys
sys.path.insert(0, sys.argv[1])
import repro.drone, repro.fleet, repro.tinympc
assert "cffi" not in sys.modules and "repro.cbuild" not in sys.modules
from repro.drone import QuadrotorBatch, crazyflie
plant = QuadrotorBatch([crazyflie()], [0.002])
print(plant._binding is not None, "cffi" in sys.modules)
"""


def test_toolchain_code_loads_with_the_first_batch_plant():
    """Importing the package loads neither cffi nor the build code, so a
    process that builds no plant (a design-space sweep) never pays for
    them; the first ``QuadrotorBatch`` loads both."""
    source = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = {name: value for name, value in os.environ.items()
           if name not in ("PYTHONPATH", "REPRO_KERNEL_BACKEND")}
    probe = subprocess.run([sys.executable, "-c", _LAZY_PROBE, source],
                           env=env, capture_output=True, text=True,
                           timeout=300)
    assert probe.returncode == 0, probe.stderr
    bound, loaded = probe.stdout.split()
    assert bound == str(compiled_plant.library() is not None)
    assert loaded == "True" or bound == "False"
