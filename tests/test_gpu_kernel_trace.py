"""Tests for kernel/program datatypes, streams and trace statistics."""

import pytest

from repro.common.dim3 import Dim3
from repro.gpu.arch import TESLA_V100
from repro.gpu.kernel import KernelLaunch, Segment, SemPost, SemWait, ThreadBlockProgram, simple_kernel
from repro.gpu.memory import GlobalMemory
from repro.gpu.simulator import GpuSimulator
from repro.gpu.stream import Stream
from repro.gpu.trace import analytic_utilization, wave_count


class TestSegmentsAndPrograms:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Segment(duration_us=-1.0)

    def test_nan_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_us must be non-negative"):
            Segment(duration_us=float("nan"))

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


class TestKernelLaunch:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            KernelLaunch("k", Dim3(0, 1, 1), lambda tile: ThreadBlockProgram(tile=tile))

    def test_rejects_bad_occupancy(self):
        with pytest.raises(ValueError):
            simple_kernel("k", Dim3(1, 1, 1), 1.0, occupancy=0)

    def test_default_tile_order_is_row_major(self, small_arch, small_cost_model):
        kernel = simple_kernel("k", Dim3(3, 2, 1), 1.0)
        trace = GpuSimulator(small_arch, cost_model=small_cost_model).run([kernel]).trace
        tiles = {record.dispatch_index: record.tile for record in trace.blocks}
        assert tiles[0] == Dim3(0, 0, 0)
        assert tiles[4] == Dim3(1, 1, 0)

    def test_build_program_type_checked(self, small_arch, small_cost_model):
        kernel = KernelLaunch("k", Dim3(1, 1, 1), lambda tile: "not a program")
        with pytest.raises(TypeError, match="kernel 'k' returned str"):
            GpuSimulator(small_arch, cost_model=small_cost_model).run([kernel])

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

    def test_trace_accumulates_block_records(self, small_arch, small_cost_model):
        """Each kernel's statistics and the run's wait total are the sums of
        its block records, which cover every block once."""
        memory = GlobalMemory()
        memory.alloc_semaphores("s", 1)
        producer = simple_kernel(
            "producer", Dim3(1, 1, 1), 5.0, stream=Stream(name="p"),
            posts_per_block=lambda tile: [SemPost("s", 0)],
        )
        consumer = simple_kernel(
            "consumer", Dim3(2, 1, 1), 3.0, stream=Stream(name="c"),
            waits_per_block=lambda tile: [SemWait("s", 0, 1)],
        )
        trace = (
            GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model)
            .run([producer, consumer])
            .trace
        )
        assert trace.total_wait_time_us() == sum(record.wait_time_us for record in trace.blocks) > 0.0
        for name, blocks in (("producer", 1), ("consumer", 2)):
            records = [record for record in trace.blocks if record.kernel == name]
            stats = trace.kernels[name]
            assert sorted(record.dispatch_index for record in records) == list(range(blocks))
            assert stats.start_time_us == min(record.dispatch_time_us for record in records)
            assert stats.end_time_us == max(record.end_time_us for record in records)
            assert stats.total_wait_time_us == sum(record.wait_time_us for record in records)
            assert stats.total_work_time_us == sum(record.work_time_us for record in records)
        assert 0.0 < trace.measured_sm_busy_fraction() <= 1.0
        assert "consumer" in trace.summary()
