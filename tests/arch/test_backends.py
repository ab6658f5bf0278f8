"""Tests for the scalar, vector, and systolic timing models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    GemminiConfig,
    GemminiInstruction,
    GemminiModel,
    GemminiOpcode,
    InstructionStream,
    MemoryModel,
    ROCKET,
    SHUTTLE,
    SaturnConfig,
    SaturnModel,
    ScalarCoreModel,
    ScalarWork,
    VectorInstruction,
    VectorOpcode,
)
from repro.arch.backend import left_fold


def _scalar_stream(flops=100, memory_bytes=256, op_calls=1, loops=10, chain=2):
    return InstructionStream([ScalarWork(kernel="k", flops=flops,
                                         memory_bytes=memory_bytes,
                                         op_calls=op_calls,
                                         loop_iterations=loops,
                                         dependent_chain=chain)],
                             backend="scalar")


class TestScalarModel:
    def test_report_structure(self):
        report = ScalarCoreModel(ROCKET).run(_scalar_stream())
        assert report.total_cycles > 0
        assert report.instruction_count == 1
        assert report.flops == 100
        assert report.kernel_cycles("k") == pytest.approx(report.total_cycles)
        assert sum(report.cycles_by_category.values()) == pytest.approx(report.total_cycles)

    def test_more_flops_more_cycles(self):
        model = ScalarCoreModel(ROCKET)
        small = model.run(_scalar_stream(flops=50)).total_cycles
        large = model.run(_scalar_stream(flops=500)).total_cycles
        assert large > small

    def test_wider_core_is_faster(self):
        stream = _scalar_stream(flops=2000, loops=200, op_calls=20)
        rocket = ScalarCoreModel(ROCKET).run(stream).total_cycles
        shuttle = ScalarCoreModel(SHUTTLE).run(stream).total_cycles
        assert shuttle < rocket

    def test_dependence_chain_hurts_in_order_more(self):
        from repro.arch import SMALL_BOOM
        independent = _scalar_stream(flops=512, chain=2)
        dependent = _scalar_stream(flops=512, chain=128)
        rocket_penalty = (ScalarCoreModel(ROCKET).run(dependent).total_cycles
                          / ScalarCoreModel(ROCKET).run(independent).total_cycles)
        boom_penalty = (ScalarCoreModel(SMALL_BOOM).run(dependent).total_cycles
                        / ScalarCoreModel(SMALL_BOOM).run(independent).total_cycles)
        assert rocket_penalty > boom_penalty

    def test_rejects_wrong_instruction_type(self):
        stream = InstructionStream([VectorInstruction(kernel="k",
                                                      opcode=VectorOpcode.VARITH,
                                                      elements=4)])
        with pytest.raises(TypeError):
            ScalarCoreModel(ROCKET).run(stream)

    def test_utilization_bounded(self):
        report = ScalarCoreModel(ROCKET).run(_scalar_stream(flops=10000))
        assert 0.0 < report.utilization(ROCKET.peak_flops_per_cycle) <= 1.0

    def test_latency_seconds_scales_with_frequency(self):
        report = ScalarCoreModel(ROCKET).run(_scalar_stream())
        assert report.latency_seconds(200e6) == pytest.approx(
            report.latency_seconds(100e6) / 2.0)


def _vector_stream(elements=16, count=8, lmul=1, sequential=False,
                   opcode=VectorOpcode.VARITH):
    return InstructionStream(
        [VectorInstruction(kernel="k", opcode=opcode, elements=elements,
                           lmul=lmul, sequential_dependency=sequential)
         for _ in range(count)], backend="vector")


class TestSaturnModel:
    def test_dlen_scaling(self):
        stream = _vector_stream(elements=64, count=20)
        narrow = SaturnModel(SaturnConfig("d128", vlen=512, dlen=128)).run(stream)
        wide = SaturnModel(SaturnConfig("d256", vlen=512, dlen=256)).run(stream)
        assert wide.total_cycles < narrow.total_cycles

    def test_shuttle_frontend_issues_faster(self):
        stream = _vector_stream(elements=4, count=50)
        rocket_front = SaturnModel(SaturnConfig("r", frontend=ROCKET)).run(stream)
        shuttle_front = SaturnModel(SaturnConfig("s", frontend=SHUTTLE)).run(stream)
        assert shuttle_front.total_cycles < rocket_front.total_cycles

    def test_lmul_grouping_penalizes_tiny_vectors(self):
        config = SaturnConfig("x", vlen=512, dlen=256)
        small_lmul1 = SaturnModel(config).run(_vector_stream(elements=4, lmul=1))
        small_lmul8 = SaturnModel(config).run(_vector_stream(elements=4, lmul=8))
        assert small_lmul8.total_cycles > small_lmul1.total_cycles

    def test_sequential_dependency_adds_stall(self):
        config = SaturnConfig("x")
        chained = SaturnModel(config).run(_vector_stream(sequential=True))
        independent = SaturnModel(config).run(_vector_stream(sequential=False))
        assert chained.total_cycles > independent.total_cycles
        assert chained.cycles_by_category.get("stall", 0.0) > 0

    def test_reduction_and_memory_opcodes(self):
        config = SaturnConfig("x")
        model = SaturnModel(config)
        for opcode in (VectorOpcode.VLOAD, VectorOpcode.VSTORE, VectorOpcode.VREDUCE,
                       VectorOpcode.VSETVL, VectorOpcode.SCALAR):
            report = model.run(_vector_stream(opcode=opcode, count=3))
            assert report.total_cycles > 0

    def test_peak_flops(self):
        assert SaturnConfig("x", dlen=256).peak_flops_per_cycle == 16.0
        assert SaturnConfig("x", dlen=512).peak_flops_per_cycle == 32.0

    def test_rejects_wrong_instruction_type(self):
        with pytest.raises(TypeError):
            SaturnModel(SaturnConfig("x")).run(_scalar_stream())


def _gemmini_stream(opcodes, **kwargs):
    instructions = []
    for opcode in opcodes:
        instructions.append(GemminiInstruction(kernel="k", opcode=opcode,
                                               rows=4, cols=4, inner=4, **kwargs))
    return InstructionStream(instructions, backend="gemmini")


class TestGemminiModel:
    def test_fence_cost(self):
        config = GemminiConfig("g")
        report = GemminiModel(config).run(_gemmini_stream([GemminiOpcode.FENCE]))
        assert report.total_cycles == pytest.approx(config.fence_stall_cycles)

    def test_dram_staging_slower_than_scratchpad(self):
        model = GemminiModel(GemminiConfig("g"))
        dram = model.run(InstructionStream([GemminiInstruction(
            kernel="k", opcode=GemminiOpcode.MVIN, rows=12, cols=12, dram=True)]))
        scratchpad = model.run(InstructionStream([GemminiInstruction(
            kernel="k", opcode=GemminiOpcode.MVIN, rows=12, cols=12, dram=False)]))
        assert dram.total_cycles > scratchpad.total_cycles

    def test_static_mapping_cheaper_issue(self):
        model = GemminiModel(GemminiConfig("g"))
        dynamic = model.run(InstructionStream([GemminiInstruction(
            kernel="k", opcode=GemminiOpcode.CONFIG, statically_mapped=False)]))
        static = model.run(InstructionStream([GemminiInstruction(
            kernel="k", opcode=GemminiOpcode.CONFIG, statically_mapped=True)]))
        assert static.total_cycles < dynamic.total_cycles

    def test_weight_stationary_slower_per_tile(self):
        os_model = GemminiModel(GemminiConfig("os", dataflow="OS"))
        ws_model = GemminiModel(GemminiConfig("ws", dataflow="WS", accumulator_kb=1))
        stream = _gemmini_stream([GemminiOpcode.COMPUTE])
        assert ws_model.run(stream).total_cycles > os_model.run(stream).total_cycles

    def test_compute_flops_counted(self):
        report = GemminiModel(GemminiConfig("g")).run(
            _gemmini_stream([GemminiOpcode.COMPUTE]))
        assert report.flops == 2 * 4 * 4 * 4

    def test_cpu_fallback_scales_with_flops(self):
        model = GemminiModel(GemminiConfig("g"))
        small = model.run(InstructionStream([GemminiInstruction(
            kernel="k", opcode=GemminiOpcode.CPU_OP, cpu_flops=10)]))
        large = model.run(InstructionStream([GemminiInstruction(
            kernel="k", opcode=GemminiOpcode.CPU_OP, cpu_flops=1000)]))
        assert large.total_cycles > small.total_cycles

    def test_invalid_dataflow_rejected(self):
        with pytest.raises(ValueError):
            GemminiConfig("bad", dataflow="XY")

    def test_rejects_wrong_instruction_type(self):
        with pytest.raises(TypeError):
            GemminiModel(GemminiConfig("g")).run(_scalar_stream())


class TestLeftFold:
    """Every cycle sum is a left fold in stream order: one rounding per
    addition, whatever blocks the stream was cut into."""

    VALUES = [2.0 ** 53] + [1.0] * 16

    def test_helper_rounds_once_per_addition(self):
        # Each +1.0 rounds back to 2**53.  Compensated and pairwise sums
        # (math.fsum, np.sum, and sum() since Python 3.12) give 2**53 + 16.
        values = np.array(self.VALUES)
        assert left_fold(values) == 2.0 ** 53
        assert math.fsum(self.VALUES) == 2.0 ** 53 + 16
        assert np.sum(values) == 2.0 ** 53 + 16
        assert left_fold(values[:0]) == 0.0

    def test_price_folds_the_stream_across_repeated_blocks(self):
        # A SCALAR record costs elements / decode_width issue cycles.
        model = SaturnModel(SaturnConfig("x", frontend=ROCKET))
        big = ("a", VectorOpcode.SCALAR, 2 ** 53, 4, 1, False)
        ones = (("b", VectorOpcode.SCALAR, 1, 4, 1, False),) * 4
        report, counters = model.price([(big,)] + [ones] * 4)
        assert report.total_cycles == 2.0 ** 53
        assert report.cycles_by_kernel == {"a": 2.0 ** 53, "b": 16.0}
        assert report.cycles_by_category == {"issue": 2.0 ** 53}
        assert report.instruction_count == counters.instructions == 17
        stream = InstructionStream(
            [VectorInstruction(*record) for record in (big,) + ones * 4])
        assert model.run(stream) == report

    def test_kernels_keep_first_appearance_order(self):
        model = SaturnModel(SaturnConfig("x"))

        def block(*kernels):
            return tuple((kernel, VectorOpcode.VSETVL, 0, 4, 1, False)
                         for kernel in kernels)
        first, second = block("k2", "k1"), block("k3")
        report, _ = model.price([first, second, first, block("k0")])
        assert list(report.cycles_by_kernel) == ["k2", "k1", "k3", "k0"]
        assert report.cycles_by_kernel["k2"] == 2 * model.config.vsetvl_cycles

    def test_empty_stream(self):
        report, counters = SaturnModel(SaturnConfig("x")).price([])
        assert report.total_cycles == 0.0
        assert report.cycles_by_kernel == report.cycles_by_category == {}
        assert counters.instructions == 0


class TestMemoryModel:
    def test_zero_bytes_cost_nothing(self):
        memory = MemoryModel()
        assert memory.l1_access_cycles(0) == 0.0
        assert memory.dram_access_cycles(0) == 0.0

    def test_dram_slower_than_l1(self):
        memory = MemoryModel()
        assert memory.dram_access_cycles(256) > memory.l1_access_cycles(256)

    def test_scratchpad_fastest(self):
        memory = MemoryModel()
        assert memory.scratchpad_access_cycles(256) < memory.l1_access_cycles(256)


# ---------------------------------------------------------------------------
# Property tests: timing monotonicity
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2000), st.integers(1, 2000))
def test_scalar_cycles_monotone_in_flops(f1, f2):
    model = ScalarCoreModel(ROCKET)
    c1 = model.run(_scalar_stream(flops=f1)).total_cycles
    c2 = model.run(_scalar_stream(flops=f2)).total_cycles
    if f1 < f2:
        assert c1 <= c2
    elif f1 > f2:
        assert c1 >= c2


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 512), st.sampled_from([1, 2, 4, 8]))
def test_vector_cycles_positive_and_finite(elements, lmul):
    model = SaturnModel(SaturnConfig("x"))
    report = model.run(_vector_stream(elements=elements, lmul=lmul, count=3))
    assert np.isfinite(report.total_cycles)
    assert report.total_cycles > 0
