"""Bit-for-bit equivalence of the scalar physics hot path vs its reference.

The RK4 step, crash detector, and actuation-power evaluation were rewritten
as allocation-free scalar arithmetic (see ``docs/perf.md``); the vectorized
originals are retained in :mod:`repro.drone.reference` and these tests hold
the rewrite to exact equality over long randomized trajectories.
"""

import numpy as np
import pytest

from repro.drone import Quadrotor, actuation_power_fn, total_actuation_power
from repro.drone.reference import (
    per_call_actuation_power_fn,
    vectorized_has_crashed,
    vectorized_step,
)
from repro.drone.variants import all_variants, crazyflie


@pytest.fixture(scope="module")
def params():
    return crazyflie()


class TestStepEquivalence:
    @pytest.mark.parametrize("rotor_dynamics", [True, False])
    @pytest.mark.parametrize("disturbed", [False, True])
    def test_trajectories_bitwise_equal(self, params, rotor_dynamics,
                                        disturbed):
        rng = np.random.default_rng(3)
        fast = Quadrotor(params, dt=0.002, rotor_dynamics=rotor_dynamics)
        reference = Quadrotor(params, dt=0.002, rotor_dynamics=rotor_dynamics)
        if disturbed:
            force = 0.01 * rng.standard_normal(3)
            torque = 1e-5 * rng.standard_normal(3)
            fast.set_disturbance(force, torque)
            reference.set_disturbance(force, torque)
        hover = params.hover_thrust_per_rotor()
        for step in range(300):
            command = hover + 0.02 * rng.standard_normal(4)
            fast_state = fast.step(command)
            reference_state = vectorized_step(reference, command)
            np.testing.assert_array_equal(fast_state, reference_state,
                                          err_msg="step {}".format(step))
            np.testing.assert_array_equal(fast.rotor_thrusts,
                                          reference.rotor_thrusts)
            assert fast.has_crashed() == vectorized_has_crashed(reference)

    def test_commands_beyond_limits_clip_identically(self, params):
        fast = Quadrotor(params, dt=0.002)
        reference = Quadrotor(params, dt=0.002)
        for command in ([-1.0, 0.0, 100.0, 0.01], [0.5] * 4, [0.0] * 4):
            np.testing.assert_array_equal(
                fast.step(np.array(command)),
                vectorized_step(reference, np.array(command)))


class TestActuationPowerEquivalence:
    @pytest.mark.parametrize("variant", sorted(all_variants()))
    def test_closure_matches_per_call_form(self, variant):
        params = all_variants()[variant]
        fast = actuation_power_fn(params)
        rng = np.random.default_rng(9)
        for _ in range(50):
            thrusts = 0.2 * rng.standard_normal(4)   # includes negatives
            assert fast(thrusts) == total_actuation_power(thrusts, params)

    def test_reference_wrapper_matches_too(self, params):
        reference = per_call_actuation_power_fn(params)
        fast = actuation_power_fn(params)
        thrusts = np.array([0.0, 0.02, 0.05, 0.08])
        assert reference(thrusts) == fast(thrusts)

    def test_efficiency_validation(self, params):
        with pytest.raises(ValueError):
            actuation_power_fn(params, electrical_efficiency=0.0)

