"""Tests for matlib tracing, kernel scoping, and program dataflow analysis."""

import numpy as np
import pytest

from repro import matlib as ml
from repro.matlib import Mat, MatlibProgram, OpKind, Trace, capture_program, kernel_scope, tracing


def _small_program() -> MatlibProgram:
    def body():
        A = Mat(np.eye(3), name="A")
        x = ml.vector([1.0, 2.0, 3.0], name="x")
        with kernel_scope("stage1"):
            y = ml.gemv(A, x)
            z = ml.add(y, x)
        with kernel_scope("stage2"):
            w = ml.scale(2.0, z)
            ml.max_abs_reduce(w)
    return capture_program(body, name="small")


class TestTracing:
    def test_no_trace_by_default(self):
        assert ml.active_trace() is None
        ml.add(ml.vector([1.0]), ml.vector([2.0]))   # must not raise

    def test_records_only_inside_context(self):
        with tracing() as trace:
            ml.add(ml.vector([1.0]), ml.vector([2.0]))
        assert len(trace) == 1
        ml.add(ml.vector([1.0]), ml.vector([2.0]))
        assert len(trace) == 1

    def test_kernel_scope_tags(self):
        with tracing() as trace:
            with kernel_scope("alpha"):
                ml.add(ml.vector([1.0]), ml.vector([2.0]))
            ml.add(ml.vector([1.0]), ml.vector([2.0]))
        assert trace[0].kernel == "alpha"
        assert trace[1].kernel is None

    def test_nested_tracing_restores_previous(self):
        with tracing() as outer:
            with tracing() as inner:
                ml.add(ml.vector([1.0]), ml.vector([2.0]))
            ml.add(ml.vector([1.0]), ml.vector([2.0]))
        assert len(inner) == 1
        assert len(outer) == 1

    def test_trace_aggregation(self):
        with tracing() as trace:
            ml.gemv(Mat(np.eye(4), name="A"), ml.vector([1.0] * 4, name="x"))
            ml.add(ml.vector([1.0] * 4), ml.vector([2.0] * 4))
        assert trace.total_flops == 32 + 4
        assert trace.count(OpKind.GEMV) == 1
        assert trace.count(OpKind.ELEMENTWISE) == 1
        assert trace.count() == 2

    def test_filter_and_by_kernel(self):
        program = _small_program()
        assert set(program.trace.kernels()) == {"stage1", "stage2"}
        stage1 = program.trace.filter(kernel="stage1")
        assert all(r.kernel == "stage1" for r in stage1)
        grouped = program.trace.by_kernel()
        assert len(grouped["stage1"]) + len(grouped["stage2"]) == len(program)


class TestProgramAnalysis:
    def test_flops_by_kernel_sums_to_total(self):
        program = _small_program()
        assert sum(program.flops_by_kernel().values()) == program.total_flops

    def test_buffers_classify_inputs_and_temporaries(self):
        program = _small_program()
        buffers = program.buffers()
        assert buffers["A"].is_input
        assert buffers["x"].is_input
        temporaries = [name for name, info in buffers.items() if info.is_temporary]
        assert temporaries, "expected at least one temporary buffer"

    def test_persistent_buffers_are_read_only_inputs(self):
        program = _small_program()
        persistent = program.persistent_buffers()
        assert "A" in persistent and "x" in persistent

    def test_consumers_of_points_forward(self):
        # consumers() is one pass; compare it with the forward scan from
        # each op it replaced, on a program that also reads one buffer
        # twice in an op, updates a buffer in place and overwrites one.
        from dataclasses import replace
        from repro.experiments.kernel_experiments import default_program
        program = default_program()
        ops = list(program.ops)
        ops[5] = replace(ops[5], inputs=(ops[3].output, ops[3].output))
        ops[6] = replace(ops[6], output=ops[5].output)
        ops[9] = replace(ops[9], output=ops[2].output)
        for candidate in (_small_program(), program,
                          MatlibProgram(Trace(ops), name="overwritten")):
            consumers = candidate.consumers()
            assert len(consumers) == len(candidate)
            for index, op in enumerate(candidate.ops):
                expected = []
                for later in range(index + 1, len(candidate)):
                    if op.output in candidate[later].inputs:
                        expected.append(later)
                    if candidate[later].output == op.output:
                        break
                assert consumers[index] == expected
                assert all(consumer > index for consumer in consumers[index])

    def test_op_signatures_ignore_buffer_names(self):
        from dataclasses import replace
        from repro.experiments.kernel_experiments import default_program
        program = default_program()
        signatures = program.op_signatures()
        assert len(signatures) == len(program)
        assert signatures[0] == 0 and max(signatures) < len(program)
        renamed = {}
        for op, signature in zip(program.ops, signatures):
            anonymous = replace(op, inputs=tuple(
                "<" if name.startswith("<") else "" for name in op.inputs),
                output="")
            assert renamed.setdefault(signature, anonymous) == anonymous
        assert len(set(renamed.values())) == len(renamed)

    def test_fusion_candidates_are_adjacent_elementwise(self):
        program = _small_program()
        for producer, consumer in program.fusion_candidates():
            assert consumer == producer + 1
            assert program[producer].kind is OpKind.ELEMENTWISE

    def test_subprogram_restricts_kernel(self):
        program = _small_program()
        sub = program.subprogram("stage1")
        assert len(sub) > 0
        assert all(op.kernel == "stage1" for op in sub)

    def test_opreord_arithmetic_intensity(self):
        program = _small_program()
        for op in program:
            assert op.arithmetic_intensity >= 0.0
            assert op.total_bytes == op.bytes_read + op.bytes_written
