"""Tests for the simulated global memory, semaphores and race tracking."""

import numpy as np
import pytest

from repro.common.dim3 import Dim3
from repro.errors import DataRaceError, SimulationError
from repro.gpu.kernel import SemPost, SemWait, simple_kernel
from repro.gpu.memory import GlobalMemory
from repro.gpu.simulator import GpuSimulator
from repro.gpu.stream import Stream


class TestGlobalMemory:
    def test_alloc_and_read_semaphores(self):
        memory = GlobalMemory()
        memory.alloc_semaphores("sems", 3)
        assert memory.snapshot_semaphores() == {"sems": (0, 0, 0)}
        values = memory.semaphore_backing_map()["sems"]
        values[2] = 5
        assert memory.snapshot_semaphores() == {"sems": (0, 0, 5)}
        # Re-allocation at the same size zeroes the live list in place.
        memory.alloc_semaphores("sems", 3)
        assert memory.semaphore_backing_map()["sems"] is values
        assert values == [0, 0, 0]
        memory.alloc_semaphores("sems", 2)
        assert memory.snapshot_semaphores() == {"sems": (0, 0)}
        with pytest.raises(ValueError):
            memory.alloc_semaphores("empty", 0)

    def test_unknown_semaphore_array(self, small_arch, small_cost_model):
        """The store holds only allocated arrays, and a run that posts to
        any other raises, whether the post ends a segment or starts the
        kernel."""
        memory = GlobalMemory()
        assert memory.semaphore_backing_map() == {}
        completion = simple_kernel(
            "k", Dim3(1, 1, 1), 1.0, posts_per_block=lambda tile: [SemPost("missing", 0)]
        )
        first_start = simple_kernel("k", Dim3(1, 1, 1), 1.0)
        first_start.on_first_block_start.append(SemPost("missing", 0))
        for kernel in (completion, first_start):
            with pytest.raises(SimulationError, match="'missing' was never allocated"):
                GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model).run([kernel])
        assert memory.snapshot_semaphores() == {}

    def test_statistics_counted(self, small_arch, small_cost_model):
        """A run adds its atomics and polls to the memory's counters."""
        memory = GlobalMemory()
        memory.alloc_semaphores("sems", 1)
        producer = simple_kernel(
            "producer", Dim3(1, 1, 1), 1.0, stream=Stream(name="p"),
            posts_per_block=lambda tile: [SemPost("sems", 0)],
        )
        consumer = simple_kernel(
            "consumer", Dim3(2, 1, 1), 1.0, stream=Stream(name="c"),
            waits_per_block=lambda tile: [SemWait("sems", 0, 1)],
        )
        simulator = GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model)
        simulator.run([producer, consumer])
        assert memory.atomic_operations == 1
        assert memory.semaphore_reads == 2
        memory.alloc_semaphores("sems", 1)
        simulator.run([producer, consumer])
        assert (memory.atomic_operations, memory.semaphore_reads) == (2, 4)

    def test_tensor_storage(self):
        memory = GlobalMemory()
        data = np.arange(6).reshape(2, 3)
        memory.store_tensor("X", data)
        assert memory.has_tensor("X")
        assert np.array_equal(memory.tensor("X"), data)

    def test_missing_tensor(self):
        memory = GlobalMemory()
        with pytest.raises(SimulationError):
            memory.tensor("nope")

    def test_tile_write_tracking(self):
        memory = GlobalMemory()
        memory.mark_tile_written("C", (0, 0, 0))
        assert memory.tile_written("C", (0, 0, 0))
        assert not memory.tile_written("C", (1, 0, 0))
        assert memory.written_tiles("C") == {(0, 0, 0)}

    def test_race_detection_raises(self):
        memory = GlobalMemory()
        memory.store_tensor("C", np.zeros(4))
        with pytest.raises(DataRaceError):
            memory.check_tile_read("C", (0, 0, 0), reader="blockX", tracked_tensors={"C"})

    def test_race_detection_passes_after_write(self):
        memory = GlobalMemory()
        memory.store_tensor("C", np.zeros(4))
        memory.mark_tile_written("C", (0, 0, 0))
        memory.check_tile_read("C", (0, 0, 0), reader="blockX", tracked_tensors={"C"})

    def test_untracked_tensors_not_checked(self):
        memory = GlobalMemory()
        memory.store_tensor("W", np.zeros(4))
        memory.check_tile_read("W", (5, 5, 5), reader="blockX", tracked_tensors={"C"})

    def test_snapshot(self):
        memory = GlobalMemory()
        memory.alloc_semaphores("a", 2)
        memory.semaphore_backing_map()["a"][1] += 1
        snapshot = memory.snapshot_semaphores()
        assert snapshot == {"a": (0, 1)}
        memory.semaphore_backing_map()["a"][0] += 1
        assert snapshot == {"a": (0, 1)}

    def test_restore_returns_to_the_checkpoint_in_place(self):
        memory = GlobalMemory()
        memory.alloc_semaphores("a", 2)
        backing = memory.semaphore_backing_map()["a"]
        backing[0] += 1
        memory.atomic_operations = 1
        memory.mark_tile_written("C", (0, 0))
        checkpoint = memory.checkpoint()
        backing[1] += 3
        memory.atomic_operations += 1
        memory.semaphore_reads += 1
        memory.mark_tile_written("C", (1, 0))
        memory.mark_tile_written("D", (0, 0))
        memory.restore(checkpoint)
        assert memory.snapshot_semaphores() == {"a": (1, 0)}
        assert memory.semaphore_backing_map()["a"] is backing
        assert memory.written_tiles("C") == {(0, 0)}
        assert memory.written_tiles("D") == set()
        assert (memory.semaphore_reads, memory.atomic_operations) == (0, 1)
