"""Tests for the simulated global memory, semaphores and race tracking."""

import numpy as np
import pytest

from repro.errors import DataRaceError, SimulationError
from repro.gpu.memory import GlobalMemory, SemaphoreArray


class TestSemaphoreArray:
    def test_initial_values_zero(self):
        array = SemaphoreArray(name="s", size=4)
        assert array.values == [0, 0, 0, 0]

    def test_atomic_add_returns_new_value(self):
        array = SemaphoreArray(name="s", size=2)
        assert array.atomic_add(0) == 1
        assert array.atomic_add(0, 3) == 4
        assert array.read(0) == 4

    def test_reset(self):
        array = SemaphoreArray(name="s", size=2)
        array.atomic_add(1)
        array.reset()
        assert array.values == [0, 0]

    def test_index_bounds(self):
        array = SemaphoreArray(name="s", size=2)
        with pytest.raises(IndexError):
            array.read(2)
        with pytest.raises(IndexError):
            array.atomic_add(-1)


class TestGlobalMemory:
    def test_alloc_and_read_semaphores(self):
        memory = GlobalMemory()
        memory.alloc_semaphores("sems", 3, initial=1)
        assert memory.semaphore_value("sems", 2) == 1

    def test_unknown_semaphore_array(self):
        memory = GlobalMemory()
        with pytest.raises(SimulationError):
            memory.semaphores("missing")

    def test_statistics_counted(self):
        memory = GlobalMemory()
        memory.alloc_semaphores("sems", 1)
        memory.atomic_add("sems", 0)
        memory.semaphore_value("sems", 0)
        assert memory.atomic_operations == 1
        assert memory.semaphore_reads == 1
        memory.reset_statistics()
        assert memory.atomic_operations == 0

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
        memory.atomic_add("a", 1)
        assert memory.snapshot_semaphores() == {"a": (0, 1)}

    def test_restore_returns_to_the_checkpoint_in_place(self):
        memory = GlobalMemory()
        backing = memory.alloc_semaphores("a", 2).values
        memory.atomic_add("a", 0)
        memory.mark_tile_written("C", (0, 0))
        checkpoint = memory.checkpoint()
        memory.atomic_add("a", 1, 3)
        memory.semaphore_value("a", 1)
        memory.mark_tile_written("C", (1, 0))
        memory.mark_tile_written("D", (0, 0))
        memory.restore(checkpoint)
        assert memory.snapshot_semaphores() == {"a": (1, 0)}
        assert memory.semaphore_backing("a") is backing
        assert memory.written_tiles("C") == {(0, 0)}
        assert memory.written_tiles("D") == set()
        assert (memory.semaphore_reads, memory.atomic_operations) == (0, 1)
