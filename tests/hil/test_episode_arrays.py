"""The episode batch's array pieces against the rules they replace.

:class:`~repro.hil.episode.EpisodeBatch` finds every column's next event
tick at once, flies each disturbance from a table built once per episode,
and draws each episode's sensor faults ahead.  Each piece is checked here,
bit for bit, against the per-tick or per-sample rule a lone episode would
follow, and a waypoint batch that needs none of the tables is checked to
allocate none.
"""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from repro.drone import (
    Difficulty,
    DiscreteGust,
    Disturbance,
    DisturbanceCategory,
    DisturbanceType,
    DrydenGust,
    QuadrotorBatch,
    crazyflie,
    generate_scenario,
)
from repro.hil import (EpisodeRunner, HILConfig, SensorFaults, SoCModel,
                       build_variant_problem)
from repro.hil.episode import EpisodeBatch, RecoveryEpisode, first_ticks
from repro.hil.faults import FaultPipelines
from repro.tinympc import SolverSettings, TinyMPCSolver

DT = 0.002


def scalar_first_tick(threshold, after, last, dt):
    """A per-tick loop's rule: the first tick after ``after`` whose time
    reaches ``threshold``, or ``last``."""
    for tick in range(after + 1, last + 1):
        if tick * dt >= threshold:
            return tick
    return last


class TestFirstTicks:
    def check(self, rows):
        threshold, after, last, dt = zip(*rows)
        got = first_ticks(np.array(threshold), np.array(after, dtype=np.int64),
                          np.array(last, dtype=np.int64), np.array(dt))
        assert got.tolist() == [scalar_first_tick(*row) for row in rows]

    def test_random_thresholds(self):
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(3000):
            dt = float(rng.choice([0.002, 0.001, 1 / 300, 0.0025, 0.01]))
            last = int(rng.integers(1, 300))
            after = int(rng.integers(0, last))
            threshold = float(rng.uniform(-0.1, 1.2)) * last * dt
            rows.append((threshold, after, last, dt))
        self.check(rows)

    def test_exact_boundaries(self):
        """Thresholds exactly on a tick's time, one ulp either side of it,
        and past the last tick."""
        rows = []
        for dt in (0.002, 1 / 300, 0.01, 0.1):
            last = 40
            for after in (0, 13, last - 1):
                for tick in range(last + 3):
                    time = tick * dt
                    for threshold in (time, math.nextafter(time, -math.inf),
                                      math.nextafter(time, math.inf)):
                        rows.append((threshold, after, last, dt))
                rows.append((math.nextafter(last * dt, math.inf), after, last,
                             dt))
                rows.append((10.0 * last * dt, after, last, dt))
        self.check(rows)


def reference_rows(sampler, dt, steps):
    """What ``wrench_into`` writes at each tick's time."""
    force, torque = np.zeros(3), np.zeros(3)
    rows = np.empty((steps, 6))
    for tick in range(steps):
        sampler.wrench_into(tick * dt, dt, force, torque)
        rows[tick, :3] = force
        rows[tick, 3:] = torque
    return rows


def flown_rows(sampler, dt, steps):
    """What a batch column's ticks write from the sampler's table."""
    first, table, outside = sampler.wrench_table(dt, steps)
    rows = np.tile(outside, (steps, 1))
    rows[first:first + len(table)] = table
    return rows


WRENCH_EVENTS = {
    "step-force": Disturbance(DisturbanceCategory.FORCE, DisturbanceType.STEP,
                              (1.0, 0.0, 0.0), 0.08, start_time=0.5),
    "step-torque-off-grid": Disturbance(
        DisturbanceCategory.TORQUE, DisturbanceType.STEP, (0.0, 1.0, 0.0),
        0.002, start_time=0.5003),
    "step-combined-negative": Disturbance(
        DisturbanceCategory.COMBINED, DisturbanceType.STEP, (-1.0, 1.0, 0.5),
        -0.08, start_time=0.4999, duration=0.0731),
    "impulse-force-off-grid": Disturbance(
        DisturbanceCategory.FORCE, DisturbanceType.IMPULSE, (1.0, 0.0, 0.0),
        0.05, start_time=0.5001),
    "impulse-combined-shorter-than-a-tick": Disturbance(
        DisturbanceCategory.COMBINED, DisturbanceType.IMPULSE,
        (1.0, 1.0, 0.5), 0.08, start_time=0.3337, duration=0.0013),
    "step-after-the-episode": Disturbance(
        DisturbanceCategory.FORCE, DisturbanceType.STEP, (0.0, 0.0, 1.0),
        0.08, start_time=2.0),
    "discrete-gust": DiscreteGust(magnitude=0.1, start_time=0.5),
    "discrete-gust-off-grid": DiscreteGust(
        magnitude=0.12, direction=(1.0, 0.3, 0.2), ramp_time=0.17,
        hold_time=0.0, start_time=0.4003),
    "discrete-gust-negative": DiscreteGust(
        magnitude=0.1, direction=(-1.0, 0.3, 0.0), torque_fraction=-0.02,
        start_time=0.25),
    "dryden": DrydenGust(magnitude=0.08, seed=3, start_time=0.5,
                         duration=1.0),
    "dryden-whole-episode": DrydenGust(magnitude=0.05, seed=9,
                                       correlation_time=0.1,
                                       torque_fraction=-0.03),
    # Outside its window the torque is +0.0 * -0.03 = -0.0 on every tick.
    "dryden-negative-torque": DrydenGust(magnitude=0.05, seed=4,
                                         torque_fraction=-0.03,
                                         start_time=0.4003, duration=0.6),
}


class TestWrenchTables:
    # At 2.5 ms, tick * dt / dt truncates below the tick for some ticks,
    # which the tabulated gust's rounded index must absorb.
    @pytest.mark.parametrize("dt", [DT, 0.0025])
    @pytest.mark.parametrize("name", sorted(WRENCH_EVENTS))
    def test_table_is_wrench_into_bit_for_bit(self, name, dt):
        duration = 1.5
        steps = int(round(duration / dt))
        sampler = WRENCH_EVENTS[name].sampler(dt, duration)
        assert (flown_rows(sampler, dt, steps).tobytes()
                == reference_rows(sampler, dt, steps).tobytes())

    def test_discrete_event_table_is_its_window(self):
        """A 100 ms step is 50 rows at 2 ms, an impulse one row."""
        step = WRENCH_EVENTS["step-force"]
        first, table, outside = step.wrench_table(DT, 750)
        assert first == 250
        assert table.tobytes() == np.tile(
            np.concatenate(step.wrench_at(0.5, DT)), (50, 1)).tobytes()
        assert outside.tobytes() == np.zeros(6).tobytes()
        first, table, _ = WRENCH_EVENTS["impulse-force-off-grid"].wrench_table(
            DT, 750)
        assert (first, len(table)) == (251, 1)

    @pytest.mark.parametrize("name", ["discrete-gust-negative",
                                      "dryden-negative-torque"])
    def test_negative_zero_outside_keeps_the_table_a_window(self, name):
        """A ``-0.0`` wrench outside the window is the outside row, not
        table rows over every tick."""
        event = WRENCH_EVENTS[name]
        first, table, outside = event.sampler(DT, 1.5).wrench_table(DT, 750)
        assert np.signbit(outside).any() and not outside.any()
        window = round((event.end_time - event.start_time) / DT)
        assert first > 0 and abs(len(table) - window) <= 1


class TestFlownWrenches:
    def test_batch_ticks_feel_wrench_into_bit_for_bit(self, monkeypatch):
        """Every column of a recovery batch feels, on every tick it flies,
        the wrench its event's ``wrench_into`` gives for that tick: the
        tables, the outside rows around them and the outside wrench
        written at build."""
        names = sorted(WRENCH_EVENTS)
        params = crazyflie()
        problem = build_variant_problem(params)
        soc = SoCModel.from_implementation("vector", 100.0)
        soc.compile_problem(problem)
        config = HILConfig(implementation="vector")
        runners = [EpisodeRunner(config, params,
                                 RecoveryEpisode(WRENCH_EVENTS[name],
                                                 duration=1.5),
                                 soc=soc, episode_id=column)
                   for column, name in enumerate(names)]
        felt = [[] for _ in names]
        tick = QuadrotorBatch.tick

        def recording_tick(plant, columns):
            for column in list(columns):
                felt[column].append(np.concatenate(
                    (plant.force[:, column], plant.torque[:, column])))
            return tick(plant, columns)

        monkeypatch.setattr(QuadrotorBatch, "tick", recording_tick)
        # Closed-loop solves keep the drones flying past their windows,
        # onto the outside rows after them.
        solvers = [TinyMPCSolver(problem, SolverSettings(max_iterations=10,
                                                         warm_start=True))
                   for _ in runners]
        batch = EpisodeBatch(runners)
        columns = batch.advance()
        while columns.size:
            solutions = [solvers[column].solve(batch.x0[column],
                                               Xref=batch.goal[column])
                         for column in columns.tolist()]
            columns = batch.advance(
                columns, np.array([solution.control
                                   for solution in solutions]),
                np.array([solution.iterations for solution in solutions]))
        for column, name in enumerate(names):
            sampler = WRENCH_EVENTS[name].sampler(DT, 1.5)
            want = reference_rows(sampler, DT, len(felt[column]))
            assert np.array(felt[column]).tobytes() == want.tobytes(), name


FAULTS = {
    "noise": SensorFaults(noise_std=0.01, seed=3),
    "latency": SensorFaults(latency_s=0.03, seed=4),
    "dropout": SensorFaults(dropout_rate=0.3, seed=5),
    "combined": SensorFaults(noise_std=0.02, latency_s=0.02,
                             dropout_rate=0.25, seed=6),
}


def per_sample_estimates(faults, control_period, truths):
    """The pipeline one sample at a time: delay, then noise, then
    dropout-hold, drawing from the profile's RNG as each sample needs."""
    rng = faults.rng()
    pending = deque(maxlen=int(round(faults.latency_s / control_period)) + 1)
    delivered = None
    estimates = []
    for truth in truths:
        pending.append(truth)
        delayed = pending[0]
        if (faults.dropout_rate > 0.0 and delivered is not None
                and float(rng.random()) < faults.dropout_rate):
            estimates.append(delivered)
            continue
        estimate = delayed
        if faults.noise_std > 0.0:
            estimate = delayed + faults.noise_std * rng.standard_normal(
                len(truth))
        delivered = estimate
        estimates.append(estimate)
    return np.array(estimates)


class TestDrawnAheadFaults:
    @pytest.mark.parametrize("names", [("noise",), ("latency",), ("dropout",),
                                       ("combined",), tuple(FAULTS)])
    def test_pipeline_matches_per_sample_draw_for_draw(self, names):
        period, samples, dim = 0.01, 40, 12
        rng = np.random.default_rng(7)
        truths = rng.standard_normal((len(names), samples, dim))
        pipelines = FaultPipelines(
            len(names), dim, [(column, FAULTS[name], period, samples)
                              for column, name in enumerate(names)])
        got = [[] for _ in names]
        taken = np.zeros(len(names), dtype=np.int64)
        # Columns observe on interleaved schedules, as batch columns do.
        while (taken < samples).any():
            columns = np.flatnonzero((taken < samples)
                                     & (rng.random(len(names)) < 0.6))
            if not columns.size:
                continue
            estimates = pipelines.observe(
                columns, truths[columns, taken[columns]].copy())
            for row, column in enumerate(columns.tolist()):
                got[column].append(estimates[row].copy())
            taken[columns] += 1
        for column, name in enumerate(names):
            want = per_sample_estimates(FAULTS[name], period, truths[column])
            assert np.array(got[column]).tobytes() == want.tobytes(), name

    def test_profiles_exercise_their_faults(self):
        """The reference delays, holds and perturbs, so the comparison
        above is not between two clean pipelines."""
        truths = np.random.default_rng(1).standard_normal((40, 12))
        latency = per_sample_estimates(FAULTS["latency"], 0.01, truths)
        np.testing.assert_array_equal(latency[3:], truths[:-3])
        dropout = per_sample_estimates(FAULTS["dropout"], 0.01, truths)
        held = [k for k in range(1, 40)
                if np.array_equal(dropout[k], dropout[k - 1])]
        assert held and not np.array_equal(dropout, truths)
        noise = per_sample_estimates(FAULTS["noise"], 0.01, truths)
        assert 0.0 < np.abs(noise - truths).max() < 0.1


def waypoint_runners(count, seed=None, **config):
    params = crazyflie()
    soc = SoCModel.from_implementation("vector", 100.0)
    soc.compile_problem(build_variant_problem(params))
    config = HILConfig(implementation="vector", **config)
    return [EpisodeRunner(config, params,
                          generate_scenario(Difficulty.EASY,
                                            index if seed is None else seed),
                          soc=soc, episode_id=index)
            for index in range(count)]


def fly(batch):
    """Answer every request with a zero control and three iterations."""
    columns = batch.advance()
    while columns.size:
        columns = batch.advance(columns, np.zeros((columns.size, 4)),
                                np.full(columns.size, 3))


def test_waypoint_batch_allocates_no_per_tick_tables():
    """With no wrench, recording or faults, everything a batch keeps in
    numpy arrays over its whole flight is less than one float64 per
    column-tick: no wrench, position, noise or history table."""
    fly(EpisodeBatch(waypoint_runners(4)))      # load the plant library
    runners = waypoint_runners(4)
    ticks = sum(int(round(runner.scenario.duration / runner.config.physics_dt))
                for runner in runners)
    tracemalloc.start()
    try:
        batch = EpisodeBatch(runners)
        fly(batch)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.DomainFilter(
        inclusive=True, domain=np.lib.tracemalloc_domain)])
    numpy_bytes = sum(stat.size for stat in held.statistics("filename"))
    assert all(runner.result.flight_time_s > 0 for runner in runners)
    assert numpy_bytes < 8 * ticks, (numpy_bytes, ticks)


class TestCrashAtAStretchEnd:
    """A crash cuts a stretch short for every column flying it; a command
    due on the tick after the stretch must still land before that tick's
    sample."""

    CONTROL = np.array([0.01, -0.01, 0.01, -0.01])

    def drive(self, batch, iterations, poke=None):
        columns = batch.advance()
        if poke is not None:
            poke(batch)
        while columns.size:
            columns = batch.advance(
                columns, np.tile(self.CONTROL, (columns.size, 1)),
                np.full(columns.size, iterations))

    def test_survivor_flies_as_it_does_alone(self):
        pair = waypoint_runners(2, seed=0, record_trajectory=True)
        soc, config = pair[0].soc, pair[0].config
        # A latency in the last tick of the 10 ms control period: each
        # command lands on tick 5, which is also the next control tick.
        iterations = 154
        latency = (config.uart.downlink_latency
                   + soc.solve_latency(iterations)
                   + config.uart.uplink_latency)
        assert 4 * DT < latency < config.control_period <= 5 * DT

        def sink(batch):
            """Drop column 0 through the floor on its fifth tick, the
            last of the first stretch."""
            batch.plant.state[2, 0] = -0.041
            batch.plant.state[8, 0] = -1.0

        self.drive(EpisodeBatch(pair), iterations, sink)
        crashed, survivor = pair
        assert crashed.result.crashed
        assert crashed.result.flight_time_s == 4 * DT
        alone = waypoint_runners(1, seed=0, record_trajectory=True)[0]
        self.drive(EpisodeBatch([alone]), iterations)
        assert not survivor.result.crashed
        assert (survivor.result.positions.tobytes()
                == alone.result.positions.tobytes())
        assert survivor.result.solve_times == alone.result.solve_times
        assert survivor.result.final_distance == alone.result.final_distance
