"""The cycle model equals the trace off the catalog.

``test_cycle_model.py`` pins model == trace on the catalog's 48
(point, level) pairs for one program.  Here hypothesis draws the rest of
the space: random scalar cores, Saturn vector units and Gemmini arrays
passed as :class:`~repro.arch.configs.DesignPoint` objects, every level
valid for the category, every LMUL and sync granularity, and iteration
programs of random drone variants and horizons.  The model's report and
counters must equal the compiled stream's on every field.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.backend import CycleCategory
from repro.arch.configs import DesignPoint
from repro.arch.cycle_model import model_report, stream_counters
from repro.arch.scalar import ScalarCoreConfig
from repro.arch.systolic import GemminiConfig
from repro.arch.vector import SaturnConfig
from repro.codegen import OPTIMIZATION_LEVELS, CodegenFlow
from repro.drone import all_variants
from repro.hil.loop import build_variant_problem
from repro.tinympc import build_iteration_program


def _cycles(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


scalar_cores = st.builds(
    ScalarCoreConfig, name=st.just("random-core"),
    fetch_width=st.integers(1, 8), decode_width=st.integers(1, 4),
    issue_width=st.integers(1, 8), fp_units=st.integers(1, 4),
    mem_ports=st.integers(1, 2), out_of_order=st.booleans(),
    rob_entries=st.integers(0, 128),
    scheduling_efficiency=_cycles(0.3, 0.9), fp_latency=_cycles(2.0, 8.0),
    branch_penalty=_cycles(1.0, 6.0), call_overhead=_cycles(4.0, 30.0))

saturn_units = st.sampled_from([64, 128, 256, 512]).flatmap(
    lambda dlen: st.builds(
        SaturnConfig, name=st.just("random-saturn"),
        vlen=st.sampled_from([v for v in (128, 256, 512, 1024) if v >= dlen]),
        dlen=st.just(dlen), frontend=scalar_cores,
        vector_pipeline_latency=_cycles(1.0, 10.0),
        memory_port_bytes=st.sampled_from([8, 16, 32, 64]),
        vsetvl_cycles=_cycles(0.5, 3.0)))

gemmini_arrays = st.builds(
    GemminiConfig, name=st.just("random-gemmini"),
    mesh_rows=st.sampled_from([2, 4, 8, 16]),
    mesh_cols=st.sampled_from([2, 4, 8, 16]),
    dataflow=st.sampled_from(["OS", "WS"]),
    scratchpad_kb=st.sampled_from([8, 16, 32, 64, 256]),
    accumulator_kb=st.integers(0, 64), host=scalar_cores,
    has_activation_engine=st.booleans(), has_pooling_engine=st.booleans(),
    rocc_construction_cycles=_cycles(5.0, 40.0),
    rocc_static_cycles=_cycles(1.0, 5.0), rocc_issue_cycles=_cycles(0.5, 2.0),
    cisc_expansion_cycles=_cycles(1.0, 8.0),
    fence_stall_cycles=_cycles(50.0, 800.0),
    mesh_pipeline_latency=_cycles(1.0, 10.0),
    host_cycles_per_flop=_cycles(1.0, 4.0))

CONFIGS = {"scalar": scalar_cores, "vector": saturn_units,
           "systolic": gemmini_arrays}
LEVELS = [(category, level) for category, levels in OPTIMIZATION_LEVELS.items()
          for level in levels]


@lru_cache(maxsize=None)
def _program(variant: str, horizon: int):
    params = all_variants()[variant]
    return build_iteration_program(
        build_variant_problem(params, horizon=horizon))


# Five draws per level: 55 compilations, every level covered.
@pytest.mark.parametrize("category,level", LEVELS)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data(), variant=st.sampled_from(sorted(all_variants())),
       horizon=st.integers(2, 30))
def test_model_equals_trace_off_catalog(category, level, data, variant,
                                        horizon):
    point = DesignPoint(name="random-" + category, category=category,
                        config=data.draw(CONFIGS[category]))
    lmul = (data.draw(st.sampled_from([1, 2, 4, 8]))
            if category == "vector" else 1)
    granularity = (data.draw(st.sampled_from([None, 1, 2, 3, 4, 8, 16, 32]))
                   if category == "systolic" else None)
    program = _program(variant, horizon)
    compiled = CodegenFlow(lmul=lmul).compile(
        program, point, level, sync_granularity=granularity)
    report, counters = model_report(program, point, level, lmul=lmul,
                                    sync_granularity=granularity,
                                    with_counters=True)
    assert report == compiled.report
    assert counters == stream_counters(compiled.stream)
    kernels = list(report.cycles_by_kernel)
    categories = list(report.cycles_by_category)
    assert kernels == list(compiled.report.cycles_by_kernel)
    assert categories == list(compiled.report.cycles_by_category)
    assert kernels == [kernel for kernel in compiled.stream.kernels()
                       if kernel in report.cycles_by_kernel]
    assert categories == [category for category in CycleCategory.ALL
                          if category in report.cycles_by_category]
