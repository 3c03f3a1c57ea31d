"""Tests for kernel/program datatypes, streams and trace statistics."""

import math

import pytest

from repro.common.dim3 import Dim3
from repro.gpu.arch import TESLA_V100
from repro.gpu.kernel import KernelLaunch, Segment, SemPost, SemWait, ThreadBlockProgram, simple_kernel
from repro.gpu.memory import GlobalMemory
from repro.gpu.stream import Stream
from repro.gpu.trace import BlockRecord, ExecutionTrace, KernelStats, analytic_utilization, wave_count


class TestSegmentsAndPrograms:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Segment(duration_us=-1.0)

    def test_program_totals(self):
        program = ThreadBlockProgram(
            tile=Dim3(0, 0, 0),
            segments=[
                Segment(duration_us=2.0, waits=[SemWait("s", 0, 1)]),
                Segment(duration_us=3.0, posts=[SemPost("s", 1)]),
            ],
        )
        assert program.total_duration_us == pytest.approx(5.0)
        assert program.wait_count == 1
        assert program.post_count == 1

    def test_sem_wait_satisfied(self):
        memory = GlobalMemory()
        memory.alloc_semaphores("s", 1)
        wait = SemWait("s", 0, 2)
        assert not wait.satisfied(memory)
        memory.atomic_add("s", 0, 2)
        assert wait.satisfied(memory)

    def test_sem_post_applies(self):
        memory = GlobalMemory()
        memory.alloc_semaphores("s", 1)
        assert SemPost("s", 0, increment=3).apply(memory) == 3


class TestKernelLaunch:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            KernelLaunch("k", Dim3(0, 1, 1), lambda tile: ThreadBlockProgram(tile=tile))

    def test_rejects_bad_occupancy(self):
        with pytest.raises(ValueError):
            simple_kernel("k", Dim3(1, 1, 1), 1.0, occupancy=0)

    def test_default_tile_order_is_row_major(self):
        kernel = simple_kernel("k", Dim3(3, 2, 1), 1.0)
        assert kernel.tile_for_dispatch(0) == Dim3(0, 0, 0)
        assert kernel.tile_for_dispatch(4) == Dim3(1, 1, 0)

    def test_build_program_type_checked(self):
        kernel = KernelLaunch("k", Dim3(1, 1, 1), lambda tile: "not a program")
        with pytest.raises(TypeError):
            kernel.build_program(Dim3(0, 0, 0))

    def test_num_blocks(self):
        assert simple_kernel("k", Dim3(3, 2, 2), 1.0).num_blocks == 12


class TestStreams:
    def test_streams_have_unique_ids(self):
        assert Stream().stream_id != Stream().stream_id


class TestTraceStatistics:
    def test_wave_count_matches_paper_table1(self):
        # Table I: 192 blocks at occupancy 2 on 80 SMs -> 1.2 waves, 60%.
        assert wave_count(192, 2, TESLA_V100) == pytest.approx(1.2)
        assert analytic_utilization(192, 2, TESLA_V100) == pytest.approx(0.6)

    def test_utilization_full_wave(self):
        assert analytic_utilization(160, 2, TESLA_V100) == pytest.approx(1.0)

    def test_utilization_zero_blocks(self):
        assert analytic_utilization(0, 1, TESLA_V100) == 0.0

    def test_trace_accumulates_block_records(self):
        trace = ExecutionTrace(arch=TESLA_V100)
        trace.kernels["k"] = KernelStats(
            name="k", launch_index=0, grid=Dim3(1, 1, 1), occupancy=1, num_blocks=2, issue_time_us=0.0
        )
        trace.add_block(
            BlockRecord(
                kernel="k", launch_index=0, tile=Dim3(0, 0, 0), dispatch_index=0, sm_id=0,
                dispatch_time_us=0.0, end_time_us=5.0, wait_time_us=1.0, work_time_us=4.0,
            )
        )
        trace.add_block(
            BlockRecord(
                kernel="k", launch_index=0, tile=Dim3(0, 0, 0), dispatch_index=1, sm_id=1,
                dispatch_time_us=2.0, end_time_us=9.0, wait_time_us=0.0, work_time_us=7.0,
            )
        )
        trace.total_time_us = 9.0
        stats = trace.kernels["k"]
        assert stats.duration_us == pytest.approx(9.0)
        assert stats.total_wait_time_us == pytest.approx(1.0)
        assert trace.total_wait_time_us() == pytest.approx(1.0)
        assert 0.0 < trace.measured_sm_busy_fraction() <= 1.0
        assert "k" in trace.summary()
