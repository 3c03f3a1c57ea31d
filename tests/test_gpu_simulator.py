"""Tests for the discrete-event GPU simulator.

These exercise the behaviours the paper's mechanisms rely on: wave
quantization, stream ordering, launch-order block scheduling, busy-wait
slot occupancy, fine-grained overlap and deadlock detection.
"""

import pytest

from repro.common.dim3 import Dim3
from repro.common.tiles import linearize
from repro.errors import DeadlockError, SimulationError
from repro.gpu.kernel import KernelLaunch, Segment, SemPost, SemWait, ThreadBlockProgram, simple_kernel
from repro.gpu.memory import GlobalMemory
from repro.gpu.simulator import GpuSimulator
from repro.gpu.stream import Stream


def _fixed_kernel(name, blocks, duration, stream, occupancy=1):
    return simple_kernel(name, Dim3(blocks, 1, 1), duration, occupancy=occupancy, stream=stream)


class TestWaveQuantization:
    def test_single_wave(self, small_arch, small_cost_model):
        stream = Stream(name="s")
        kernel = _fixed_kernel("k", 8, 10.0, stream)
        result = GpuSimulator(small_arch, cost_model=small_cost_model).run([kernel])
        assert result.total_time_us == pytest.approx(10.0, abs=1e-6)

    def test_partial_second_wave_costs_full_wave(self, small_arch, small_cost_model):
        stream = Stream(name="s")
        kernel = _fixed_kernel("k", 9, 10.0, stream)
        result = GpuSimulator(small_arch, cost_model=small_cost_model).run([kernel])
        assert result.total_time_us == pytest.approx(20.0, abs=1e-6)

    def test_occupancy_two_doubles_blocks_per_wave(self, small_arch, small_cost_model):
        stream = Stream(name="s")
        kernel = _fixed_kernel("k", 16, 10.0, stream, occupancy=2)
        result = GpuSimulator(small_arch, cost_model=small_cost_model).run([kernel])
        assert result.total_time_us == pytest.approx(10.0, abs=1e-6)

    def test_kernel_stats_record_waves(self, small_arch, small_cost_model):
        stream = Stream(name="s")
        kernel = _fixed_kernel("k", 12, 10.0, stream)
        result = GpuSimulator(small_arch, cost_model=small_cost_model).run([kernel])
        assert result.trace.kernels["k"].waves == pytest.approx(1.5)
        assert result.trace.kernels["k"].utilization == pytest.approx(0.75)


class TestStreamSemantics:
    def test_same_stream_serializes(self, small_arch, small_cost_model):
        stream = Stream(name="s")
        first = _fixed_kernel("first", 8, 10.0, stream)
        second = _fixed_kernel("second", 8, 10.0, stream)
        result = GpuSimulator(small_arch, cost_model=small_cost_model).run([first, second])
        assert result.total_time_us == pytest.approx(20.0, abs=1e-6)
        assert result.trace.kernels["second"].start_time_us >= result.trace.kernels["first"].end_time_us

    def test_different_streams_run_concurrently(self, small_arch, small_cost_model):
        first = _fixed_kernel("first", 4, 10.0, Stream(name="a"))
        second = _fixed_kernel("second", 4, 10.0, Stream(name="b"))
        result = GpuSimulator(small_arch, cost_model=small_cost_model).run([first, second])
        assert result.total_time_us == pytest.approx(10.0, abs=1e-6)

    def test_launch_order_prioritizes_earlier_kernel(self, small_arch, small_cost_model):
        # Both kernels need all 8 SMs; the kernel launched first must get them first.
        first = _fixed_kernel("first", 8, 10.0, Stream(name="a"))
        second = _fixed_kernel("second", 8, 10.0, Stream(name="b"))
        result = GpuSimulator(small_arch, cost_model=small_cost_model).run([first, second])
        assert result.trace.kernels["first"].end_time_us <= result.trace.kernels["second"].start_time_us + 1e-9

    def test_launch_latency_delays_start(self, small_cost_model, small_arch):
        arch = small_arch.with_overrides(kernel_launch_latency_us=5.0)
        model = small_cost_model.__class__(arch=arch, duration_jitter=0.0)
        kernel = _fixed_kernel("k", 4, 10.0, Stream(name="s"))
        result = GpuSimulator(arch, cost_model=model).run([kernel])
        assert result.trace.kernels["k"].start_time_us == pytest.approx(5.0)

    def test_dispatch_gap_exposed_between_stream_kernels(self, small_arch):
        from repro.gpu.costmodel import CostModel

        arch = small_arch.with_overrides(kernel_dispatch_latency_us=4.0)
        model = CostModel(arch=arch, duration_jitter=0.0)
        stream = Stream(name="s")
        first = _fixed_kernel("first", 8, 10.0, stream)
        second = _fixed_kernel("second", 8, 10.0, stream)
        result = GpuSimulator(arch, cost_model=model).run([first, second])
        assert result.total_time_us == pytest.approx(24.0, abs=1e-6)


class TestFineGrainedSync:
    def _dependent_pair(self, grid, duration, memory):
        memory.alloc_semaphores("sems", grid.volume)

        def producer_program(tile):
            post = SemPost("sems", linearize(tile, grid))
            return ThreadBlockProgram(tile=tile, segments=[Segment(duration_us=duration, posts=[post])])

        def consumer_program(tile):
            wait = SemWait("sems", linearize(tile, grid), 1)
            return ThreadBlockProgram(tile=tile, segments=[Segment(duration_us=duration, waits=[wait])])

        producer = KernelLaunch("producer", grid, producer_program, stream=Stream(name="p"))
        consumer = KernelLaunch("consumer", grid, consumer_program, stream=Stream(name="c"))
        return producer, consumer

    def test_figure1_overlap(self, small_arch, small_cost_model):
        """The paper's Figure 1: 6+6 tiles on 4 SMs -> 3 waves, not 4."""
        arch = small_arch.with_overrides(num_sms=4)
        model = small_cost_model.__class__(arch=arch, duration_jitter=0.0)
        memory = GlobalMemory()
        grid = Dim3(3, 2, 1)
        producer, consumer = self._dependent_pair(grid, 10.0, memory)
        result = GpuSimulator(arch, memory=memory, cost_model=model).run([producer, consumer])
        # Stream synchronization would need 4 waves (40 us); fine-grained
        # synchronization packs the work into 3 waves plus small overheads.
        assert result.total_time_us < 36.0
        assert result.total_time_us >= 30.0

    def test_waiting_blocks_occupy_slots(self, small_arch, small_cost_model):
        memory = GlobalMemory()
        # 6 producer blocks on 8 SMs leave 2 slots free, which early consumer
        # blocks occupy while busy-waiting for their producer tiles.
        grid = Dim3(3, 2, 1)
        producer, consumer = self._dependent_pair(grid, 10.0, memory)
        result = GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model).run(
            [producer, consumer]
        )
        assert result.trace.total_wait_time_us() > 0.0

    def test_wait_total_sums_blocks_in_completion_order(self, small_arch, small_cost_model):
        """The run keeps the total as blocks finish: reading it builds no
        block records, and it equals the in-order float sum of theirs."""
        memory = GlobalMemory()
        producer, consumer = self._dependent_pair(Dim3(3, 2, 1), 10.0, memory)
        trace = (
            GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model)
            .run([producer, consumer])
            .trace
        )
        total = trace.total_wait_time_us()
        assert trace.deferred_blocks, "reading the total built the block records"
        in_order = 0.0
        for record in trace.blocks:
            in_order += record.wait_time_us
        assert total == in_order > 0.0

    def test_deadlock_when_consumer_launched_first(self, small_arch, small_cost_model):
        memory = GlobalMemory()
        grid = Dim3(4, 2, 1)
        producer, consumer = self._dependent_pair(grid, 10.0, memory)
        with pytest.raises(DeadlockError) as excinfo:
            GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model).run(
                [consumer, producer]
            )
        assert excinfo.value.waiting_blocks

    def test_semaphores_reach_expected_values(self, small_arch, small_cost_model):
        memory = GlobalMemory()
        grid = Dim3(2, 2, 1)
        producer, consumer = self._dependent_pair(grid, 1.0, memory)
        GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model).run([producer, consumer])
        assert memory.snapshot_semaphores()["sems"] == (1, 1, 1, 1)

    def test_on_first_block_start_posts(self, small_arch, small_cost_model):
        memory = GlobalMemory()
        memory.alloc_semaphores("start", 1)
        kernel = simple_kernel("k", Dim3(2, 1, 1), 1.0, stream=Stream(name="s"))
        kernel.on_first_block_start.append(SemPost("start", 0))
        GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model).run([kernel])
        assert memory.snapshot_semaphores() == {"start": (1,)}


class TestPollAccounting:
    """Duration-stepped poll accounting for busy-wait segments.

    A segment with ``poll_interval_us`` set parks in the wake index like
    any other waiter (woken exactly once) but back-charges the polls its
    busy-wait loop would have issued — one per wait per elapsed
    interval.  The charge must be accounting-only: times and traces are
    identical with and without it.
    """

    def _run(self, arch, cost_model, producer_us, poll_interval):
        memory = GlobalMemory()
        memory.alloc_semaphores("sems", 1)

        def producer_program(tile):
            return ThreadBlockProgram(
                tile=tile,
                segments=[Segment(duration_us=producer_us, posts=[SemPost("sems", 0)])],
            )

        def waiter_program(tile):
            return ThreadBlockProgram(
                tile=tile,
                segments=[
                    Segment(
                        duration_us=1.0,
                        waits=[SemWait("sems", 0, 1)],
                        poll_interval_us=poll_interval,
                    )
                ],
            )

        producer = KernelLaunch("producer", Dim3(1, 1, 1), producer_program, stream=Stream(name="p"))
        waiter = KernelLaunch("waiter", Dim3(1, 1, 1), waiter_program, stream=Stream(name="w"))
        result = GpuSimulator(arch, memory=memory, cost_model=cost_model).run([producer, waiter])
        return result, memory

    def test_stepped_polls_charged_per_interval(self, small_arch, small_cost_model):
        baseline, baseline_memory = self._run(small_arch, small_cost_model, 40.0, 0.0)
        stepped, stepped_memory = self._run(small_arch, small_cost_model, 40.0, 4.0)
        waited = stepped.trace.total_wait_time_us()
        assert waited > 0.0
        expected_extra = int(waited / 4.0)
        assert expected_extra > 0
        assert (
            stepped_memory.semaphore_reads
            == baseline_memory.semaphore_reads + expected_extra
        )

    def test_poll_interval_is_timing_neutral(self, small_arch, small_cost_model):
        baseline, _ = self._run(small_arch, small_cost_model, 40.0, 0.0)
        stepped, _ = self._run(small_arch, small_cost_model, 40.0, 4.0)
        assert stepped.total_time_us == baseline.total_time_us
        assert stepped.trace.total_wait_time_us() == baseline.trace.total_wait_time_us()
        for name in ("producer", "waiter"):
            assert stepped.trace.kernels[name] == baseline.trace.kernels[name]

    def test_interval_under_one_step_charges_nothing(self, small_arch, small_cost_model):
        # An interval longer than the parked time rounds to zero whole
        # polls: the stepped charge only counts *completed* spin
        # iterations, so a short wait costs the same as interval 0.
        baseline, baseline_memory = self._run(small_arch, small_cost_model, 40.0, 0.0)
        waited = baseline.trace.total_wait_time_us()
        assert waited > 0.0
        stepped, stepped_memory = self._run(
            small_arch, small_cost_model, 40.0, waited * 2.0
        )
        assert stepped_memory.semaphore_reads == baseline_memory.semaphore_reads


class TestValidation:
    def test_duplicate_kernel_names_rejected(self, small_arch, small_cost_model):
        stream = Stream(name="s")
        a = _fixed_kernel("same", 1, 1.0, stream)
        b = _fixed_kernel("same", 1, 1.0, stream)
        with pytest.raises(SimulationError):
            GpuSimulator(small_arch, cost_model=small_cost_model).run([a, b])

    def test_empty_launch_list_rejected(self, small_arch, small_cost_model):
        with pytest.raises(SimulationError):
            GpuSimulator(small_arch, cost_model=small_cost_model).run([])

    @pytest.mark.parametrize("index", [-1, 2])
    @pytest.mark.parametrize("path", ["completion", "first_block_start"])
    def test_out_of_range_post_raises(self, small_arch, small_cost_model, path, index):
        """A post to a semaphore past either end of its array raises, whether
        it ends a segment or starts the kernel (a post to index -1 must not
        reach the array's last semaphore)."""
        memory = GlobalMemory()
        memory.alloc_semaphores("sems", 2)
        post = SemPost("sems", index)
        if path == "completion":
            kernel = simple_kernel("k", Dim3(1, 1, 1), 1.0, posts_per_block=lambda tile: [post])
        else:
            kernel = simple_kernel("k", Dim3(1, 1, 1), 1.0)
            kernel.on_first_block_start.append(post)
        with pytest.raises(IndexError, match=f"index {index} out of range for array 'sems' of size 2"):
            GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model).run([kernel])
        assert memory.snapshot_semaphores() == {"sems": (0, 0)}

    def test_all_blocks_complete(self, small_arch, small_cost_model):
        stream = Stream(name="s")
        kernel = _fixed_kernel("k", 13, 3.0, stream)
        result = GpuSimulator(small_arch, cost_model=small_cost_model).run([kernel])
        assert len(result.trace.blocks_of("k")) == 13

    def test_custom_tile_order_applied(self, small_arch, small_cost_model):
        grid = Dim3(4, 1, 1)
        order = [Dim3(3, 0, 0), Dim3(2, 0, 0), Dim3(1, 0, 0), Dim3(0, 0, 0)]

        def program(tile):
            return ThreadBlockProgram(tile=tile, segments=[Segment(duration_us=1.0)])

        kernel = KernelLaunch(
            "k", grid, program, stream=Stream(name="s"), tile_order=lambda index: order[index]
        )
        result = GpuSimulator(small_arch, cost_model=small_cost_model).run([kernel])
        records = result.trace.blocks_of("k")
        assert [record.tile for record in records] == order
