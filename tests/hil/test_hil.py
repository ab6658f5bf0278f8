"""Tests for the HIL system simulation: SoC, UART, RTOS, metrics, closed loop."""

import numpy as np
import pytest

from repro.drone import Difficulty, Disturbance, DisturbanceCategory, DisturbanceType, \
    generate_scenario, hawk
from repro.hil import (
    DroNetWorkload,
    HILConfig,
    HILLoop,
    RTOSModel,
    SOFTWARE_IMPLEMENTATIONS,
    ScenarioResult,
    SoCModel,
    SweepCell,
    UARTLink,
    aggregate_cell,
    build_variant_problem,
    success_rate,
)
from repro.tinympc import default_quadrotor_problem


@pytest.fixture(scope="module")
def problem():
    return default_quadrotor_problem()


class TestUART:
    def test_latencies_positive_and_ordered(self):
        link = UARTLink()
        assert link.downlink_latency > link.uplink_latency > 0.0
        assert link.round_trip_latency == pytest.approx(
            link.downlink_latency + link.uplink_latency)

    def test_slower_baud_more_latency(self):
        slow = UARTLink(baud_rate=115200)
        fast = UARTLink(baud_rate=2_000_000)
        assert slow.round_trip_latency > fast.round_trip_latency

    def test_ideal_link_is_zero_latency(self):
        assert UARTLink.ideal().round_trip_latency == 0.0


class TestSoCModel:
    @pytest.mark.parametrize("implementation", sorted(SOFTWARE_IMPLEMENTATIONS))
    def test_named_implementations_compile(self, problem, implementation):
        soc = SoCModel.from_implementation(implementation, frequency_mhz=100.0)
        report = soc.compile_problem(problem)
        assert report.total_cycles > 0
        assert soc.solve_latency(10) > 0

    def test_unknown_implementation_rejected(self):
        with pytest.raises(KeyError):
            SoCModel.from_implementation("gpu", 100.0)

    def test_vector_faster_than_scalar(self, problem):
        scalar = SoCModel.from_implementation("scalar", 100.0)
        vector = SoCModel.from_implementation("vector", 100.0)
        scalar.compile_problem(problem)
        vector.compile_problem(problem)
        assert vector.solve_latency(10) < scalar.solve_latency(10)

    def test_latency_scales_inversely_with_frequency(self, problem):
        slow = SoCModel.from_implementation("vector", 50.0)
        fast = SoCModel.from_implementation("vector", 200.0)
        slow.compile_problem(problem)
        fast.compile_problem(problem)
        assert slow.solve_latency(10) == pytest.approx(4 * fast.solve_latency(10))

    def test_timing_requires_compilation(self):
        soc = SoCModel.from_implementation("vector", 100.0)
        with pytest.raises(RuntimeError):
            soc.solve_latency(10)

    def test_power_positive_and_activity_scaled(self, problem):
        soc = SoCModel.from_implementation("vector", 100.0)
        soc.compile_problem(problem)
        assert 0.0 < soc.power(0.0) < soc.power(1.0)


class TestRTOSAndDroNet:
    def test_occupancy_bounded(self):
        rtos = RTOSModel(mpc_rate_hz=50.0)
        assert rtos.mpc_occupancy(0.0) < 0.01
        assert rtos.mpc_occupancy(1.0) == pytest.approx(1.0)

    def test_faster_mpc_frees_cpu_for_dronet(self):
        rtos = RTOSModel(mpc_rate_hz=50.0)
        slow = rtos.report("scalar", 100.0, solve_time_s=8e-3)
        fast = rtos.report("vector", 100.0, solve_time_s=1e-3)
        assert fast.background_fps > slow.background_fps
        assert fast.mpc_cpu_occupancy < slow.mpc_cpu_occupancy

    def test_dronet_fps_scales_with_frequency(self):
        dronet = DroNetWorkload()
        assert dronet.achievable_fps(200e6, 1.0) == pytest.approx(
            2 * dronet.achievable_fps(100e6, 1.0))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            DroNetWorkload().frame_time(0.0)
        with pytest.raises(ValueError):
            RTOSModel().mpc_occupancy(-1.0)


class TestMetrics:
    def _result(self, success, power=2.0):
        return ScenarioResult(
            scenario=generate_scenario(Difficulty.EASY, 0),
            implementation="vector", frequency_mhz=100.0, success=success,
            crashed=not success, final_distance=0.1, solve_times=[1e-3, 2e-3],
            solve_iterations=[5, 6], actuation_power_w=power, soc_power_w=0.05,
            flight_time_s=4.0)

    def test_success_rate(self):
        results = [self._result(True), self._result(True), self._result(False)]
        assert success_rate(results) == pytest.approx(2 / 3)
        assert success_rate([]) == 0.0

    def test_aggregate_cell(self):
        results = [self._result(True), self._result(False, power=3.0)]
        cell = aggregate_cell(results)
        assert isinstance(cell, SweepCell)
        assert cell.episodes == 2
        assert cell.success_rate == pytest.approx(0.5)
        assert cell.mean_actuation_power_w == pytest.approx(2.5)
        assert cell.median_solve_time_ms == pytest.approx(1.5)
        assert set(cell.as_row()) >= {"implementation", "frequency_mhz", "difficulty",
                                      "success_rate", "median_solve_time_ms"}

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_cell([])


class TestClosedLoop:
    def test_variant_problem_builds(self):
        problem = build_variant_problem(hawk(), control_rate_hz=100.0)
        assert problem.state_dim == 12 and problem.input_dim == 4

    def test_vector_100mhz_completes_easy_scenario(self):
        loop = HILLoop(HILConfig(implementation="vector", frequency_mhz=100.0))
        result = loop.run_scenario(generate_scenario(Difficulty.EASY, seed=0))
        assert result.success
        assert not result.crashed
        assert result.median_solve_time > 0
        assert result.actuation_power_w > 0.5
        assert result.soc_power_w > 0.0
        assert result.total_power_w == pytest.approx(
            result.actuation_power_w + result.soc_power_w)

    def test_loop_build_solves_the_dare_once(self, monkeypatch):
        """The SoC compiles a program traced with the solver's LQR cache,
        so building a loop solves the Riccati equation once."""
        import repro.tinympc.cache as cache_module
        calls = []
        dare = cache_module.dare

        def counting_dare(*args, **kwargs):
            calls.append(args)
            return dare(*args, **kwargs)

        monkeypatch.setattr(cache_module, "dare", counting_dare)
        HILLoop(HILConfig(implementation="vector"))
        assert len(calls) == 1

    def test_ideal_policy_has_no_compute_cost(self):
        loop = HILLoop(HILConfig(implementation="ideal"))
        result = loop.run_scenario(generate_scenario(Difficulty.EASY, seed=1))
        assert result.success
        assert result.soc_power_w == 0.0

    def test_scalar_low_frequency_struggles_on_hard(self):
        """The Figure 16 mechanism: under-provisioned compute fails hard tasks.

        20 MHz is decisively below the stability cliff for this scenario
        (25 MHz sits on the knife edge, where float-level controller
        perturbations can flip the outcome).
        """
        slow = HILLoop(HILConfig(implementation="scalar", frequency_mhz=20.0))
        result = slow.run_scenario(generate_scenario(Difficulty.HARD, seed=0))
        assert not result.success

    def test_disturbance_recovery_with_vector_controller(self):
        loop = HILLoop(HILConfig(implementation="vector", frequency_mhz=100.0))
        disturbance = Disturbance(DisturbanceCategory.FORCE, DisturbanceType.STEP,
                                  (1.0, 0.0, 0.0), 0.05, start_time=0.5)
        result = loop.run_disturbance(disturbance, duration=2.5)
        assert result.recovered
        assert result.max_deviation > 0.0

    def test_crash_during_disturbance_window_is_not_recovered(self):
        """An unrecoverable wrench must report recovered=False with no TTR,
        even though the trajectory ends early (inside nothing)."""
        loop = HILLoop(HILConfig(implementation="vector", frequency_mhz=100.0))
        disturbance = Disturbance(DisturbanceCategory.TORQUE,
                                  DisturbanceType.STEP,
                                  (1.0, 0.0, 0.0), 1.0, start_time=0.5)
        result = loop.run_disturbance(disturbance, duration=2.5)
        assert result.recovered is False
        assert result.time_to_recovery is None
        assert result.max_deviation > 0.0

    def test_unaligned_impulse_start_runs_closed_loop(self):
        """An impulse start time off the physics-step grid still injects
        exactly one kick and the episode completes normally."""
        loop = HILLoop(HILConfig(implementation="vector", frequency_mhz=100.0))
        disturbance = Disturbance(DisturbanceCategory.FORCE,
                                  DisturbanceType.IMPULSE,
                                  (1.0, 0.0, 0.0), 0.05, start_time=0.5001)
        result = loop.run_disturbance(disturbance, duration=2.5)
        assert result.max_deviation > 0.0
        assert result.recovered

    def test_trajectory_recording(self):
        config = HILConfig(implementation="ideal", record_trajectory=True)
        loop = HILLoop(config)
        result = loop.run_scenario(generate_scenario(Difficulty.EASY, seed=2))
        assert result.positions is not None
        assert result.positions.shape[1] == 3

