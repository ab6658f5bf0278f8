"""The per-tick wrench evaluation must stay allocation-free.

``wrench_into`` is the per-tick reference every episode's wrench table is
checked against (``tests/hil/test_episode_arrays.py``), and it is held to
the zero-allocation discipline of the solver hot path: a full episode of
ticks retains zero numpy bytes and never exceeds the scalar hot-path peak
ceiling.  This extends to the continuous gust samplers the
scenario-diversity axes fly.
"""

import numpy as np

from repro.bench import ALLOC_PEAK_LIMIT_SCALAR, measure_iteration_allocations
from repro.drone import (
    Disturbance,
    DisturbanceCategory,
    DisturbanceType,
    DiscreteGust,
    DrydenGust,
)

DT = 0.002
TICKS = tuple(np.arange(0.0, 1.5, DT))


def _assert_tick_loop_allocates_nothing(wrench):
    force, torque = np.zeros(3), np.zeros(3)

    def episode_ticks():
        for t in TICKS:
            wrench.wrench_into(t, DT, force, torque)

    counts = measure_iteration_allocations(episode_ticks)
    assert counts["numpy_net_bytes"] == 0, counts
    assert counts["peak_bytes"] < ALLOC_PEAK_LIMIT_SCALAR, counts


class TestDisturbanceHotpathAllocations:
    def _disturbance(self):
        return Disturbance(DisturbanceCategory.COMBINED, DisturbanceType.STEP,
                           (1.0, 1.0, 0.5), 0.08, start_time=0.5)

    def test_wrench_into_allocates_nothing(self):
        """A full disturbance episode's wrench ticks retain zero numpy
        bytes and never exceed the scalar hot-path peak ceiling."""
        _assert_tick_loop_allocates_nothing(self._disturbance())

    def test_probe_detects_the_allocating_wrench_path(self):
        """Sensitivity check: retaining wrench_at's per-tick arrays must
        trip the same numpy-domain accounting."""
        d = self._disturbance()
        sink = []
        counts = measure_iteration_allocations(
            lambda: sink.extend(d.wrench_at(0.55, DT)))
        assert counts["numpy_net_bytes"] > 0, counts


class TestGustSamplerAllocations:
    """The gust samplers tabulate once per episode; the per-tick lookup
    must then match the discrete disturbances' zero-alloc discipline."""

    def test_dryden_tabulated_wrench_allocates_nothing(self):
        sampler = DrydenGust(magnitude=0.08, seed=3, start_time=0.5,
                             duration=1.0).sampler(DT, 1.5)
        _assert_tick_loop_allocates_nothing(sampler)

    def test_discrete_gust_allocates_nothing(self):
        sampler = DiscreteGust(magnitude=0.1, start_time=0.5).sampler(DT, 1.5)
        _assert_tick_loop_allocates_nothing(sampler)
