"""Simulated GPU global memory: tensors, semaphore arrays and atomics.

cuSync's synchronization state lives in GPU global memory: an array of
integer semaphores that producer thread blocks increment with ``atomicAdd``
and consumer thread blocks poll.  :class:`GlobalMemory` models that state
plus two facilities the reproduction needs on top:

* optional *functional* tensors (numpy arrays) so kernels can compute real
  values and tests can check them against references;
* per-tile write tracking, so the simulator can detect a data race — a
  consumer reading a tile the producer has not yet written — which is the
  correctness property the paper's wait/post protocol guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from repro.common.validation import check_non_negative, check_positive
from repro.errors import DataRaceError, SimulationError

#: Shared immutable empty set used as the miss default in tile lookups, so
#: the hot ``tile_written`` / ``written_tiles`` paths never allocate.
_EMPTY_TILE_SET: frozenset = frozenset()


def _raise_semaphore_index_error(name: str, index: int, size: int) -> None:
    raise IndexError(
        f"semaphore index {index} out of range for array '{name}' of size {size}"
    )


@dataclass
class SemaphoreArray:
    """An array of integer semaphores stored in simulated global memory."""

    name: str
    size: int
    values: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_positive("size", self.size)
        if not self.values:
            self.values = [0] * self.size

    def read(self, index: int) -> int:
        """Return the current value of semaphore ``index``."""
        self._check_index(index)
        return self.values[index]

    def atomic_add(self, index: int, increment: int = 1) -> int:
        """Atomically add ``increment`` and return the *new* value."""
        self._check_index(index)
        self.values[index] += increment
        return self.values[index]

    def reset(self) -> None:
        """Reset all semaphores to zero (reused between kernel invocations).

        Resets in place so that direct references to ``values`` (the
        :class:`GlobalMemory` fast-read index) stay valid.
        """
        self.values[:] = [0] * self.size

    def _check_index(self, index: int) -> None:
        if not (0 <= index < self.size):
            _raise_semaphore_index_error(self.name, index, self.size)


class GlobalMemory:
    """The device's global memory as seen by the simulator.

    Three kinds of state are tracked:

    ``semaphores``
        Named :class:`SemaphoreArray` objects allocated by cuSync stages.
    ``tensors``
        Optional numpy arrays for functional simulation.  Timing-only runs
        never allocate these, so simulating GPT-3-sized problems stays cheap.
    ``written tiles``
        For every named tensor, the set of tile keys whose producer has
        posted.  Functional kernels mark writes and verify reads, turning a
        broken synchronization policy into a :class:`DataRaceError` instead
        of silently wrong data.
    """

    def __init__(self) -> None:
        self._semaphores: Dict[str, SemaphoreArray] = {}
        #: Direct name → values-list index for the hot poll/post paths.  The
        #: lists are the same objects held by the :class:`SemaphoreArray`
        #: instances (which mutate them only in place), so a single dict
        #: lookup replaces the array-object indirection on every read.
        self._semaphore_values: Dict[str, List[int]] = {}
        self._tensors: Dict[str, np.ndarray] = {}
        self._written_tiles: Dict[str, Set[Hashable]] = {}
        #: Total number of atomic operations performed, for overhead studies.
        self.atomic_operations: int = 0
        #: Total number of semaphore polls performed.
        self.semaphore_reads: int = 0

    # ------------------------------------------------------------------
    # Semaphores
    # ------------------------------------------------------------------
    def alloc_semaphores(self, name: str, size: int, initial: int = 0) -> SemaphoreArray:
        """Allocate (or reallocate) a named semaphore array.

        Re-allocating a name at its existing size re-initializes the array
        in place — the backing value list stays the same object, so direct
        references held by fast paths (see :meth:`semaphore_backing_map`)
        survive the warmup/measure re-allocation cycle of benchmark runs.
        """
        check_non_negative("initial", initial)
        existing = self._semaphores.get(name)
        if existing is not None and existing.size == size:
            existing.values[:] = [initial] * size
            return existing
        array = SemaphoreArray(name=name, size=size, values=[initial] * size)
        self._semaphores[name] = array
        self._semaphore_values[name] = array.values
        return array

    def semaphores(self, name: str) -> SemaphoreArray:
        """Return the semaphore array called ``name``."""
        try:
            return self._semaphores[name]
        except KeyError:
            raise SimulationError(f"semaphore array '{name}' was never allocated") from None

    def has_semaphores(self, name: str) -> bool:
        return name in self._semaphores

    def semaphore_backing(self, name: str) -> List[int]:
        """The raw value list backing one semaphore array.

        The list is the live storage (arrays mutate it only in place), so
        hot paths may hold it across an entire simulation run and index it
        directly instead of going through :meth:`semaphore_value` per probe.
        Callers bypassing the accessors own the bounds checking and must
        fold their poll/atomic counts back into :attr:`semaphore_reads` /
        :attr:`atomic_operations` if they want the statistics to persist.
        """
        try:
            return self._semaphore_values[name]
        except KeyError:
            raise SimulationError(f"semaphore array '{name}' was never allocated") from None

    def semaphore_backing_map(self) -> Dict[str, List[int]]:
        """A snapshot dict of every array's raw backing list (see above)."""
        return dict(self._semaphore_values)

    def semaphore_value(self, name: str, index: int) -> int:
        """Read one semaphore, counting the poll for overhead statistics."""
        self.semaphore_reads += 1
        try:
            values = self._semaphore_values[name]
        except KeyError:
            raise SimulationError(f"semaphore array '{name}' was never allocated") from None
        if 0 <= index < len(values):
            return values[index]
        _raise_semaphore_index_error(name, index, len(values))

    def atomic_add(self, name: str, index: int, increment: int = 1) -> int:
        """Atomic add on one semaphore, counting the atomic operation."""
        self.atomic_operations += 1
        try:
            values = self._semaphore_values[name]
        except KeyError:
            raise SimulationError(f"semaphore array '{name}' was never allocated") from None
        if 0 <= index < len(values):
            values[index] += increment
            return values[index]
        _raise_semaphore_index_error(name, index, len(values))

    # ------------------------------------------------------------------
    # Tensors (functional mode)
    # ------------------------------------------------------------------
    def store_tensor(self, name: str, array: np.ndarray) -> None:
        """Place a numpy array in global memory under ``name``."""
        self._tensors[name] = array
        self._written_tiles.setdefault(name, set())

    def tensor(self, name: str) -> np.ndarray:
        """Return the tensor called ``name``."""
        try:
            return self._tensors[name]
        except KeyError:
            raise SimulationError(f"tensor '{name}' was never stored in global memory") from None

    def has_tensor(self, name: str) -> bool:
        return name in self._tensors

    # ------------------------------------------------------------------
    # Data-race tracking
    # ------------------------------------------------------------------
    def mark_tile_written(self, tensor_name: str, tile_key: Hashable) -> None:
        """Record that the producer finished writing ``tile_key`` of a tensor."""
        self._written_tiles.setdefault(tensor_name, set()).add(tile_key)

    def tile_written(self, tensor_name: str, tile_key: Hashable) -> bool:
        """Whether ``tile_key`` of a tensor has been written."""
        return tile_key in self._written_tiles.get(tensor_name, _EMPTY_TILE_SET)

    def written_tiles(self, tensor_name: str) -> Set[Hashable]:
        """All tile keys of a tensor that have been written so far."""
        return set(self._written_tiles.get(tensor_name, _EMPTY_TILE_SET))

    def check_tile_read(
        self, tensor_name: str, tile_key: Hashable, reader: str, tracked_tensors: Optional[Set[str]] = None
    ) -> None:
        """Raise :class:`DataRaceError` if a tracked tile is read before written.

        Only tensors listed in ``tracked_tensors`` (the outputs of producer
        kernels) are checked; kernel inputs that exist before the pipeline
        starts (weights, activations) are always considered available.
        """
        if tracked_tensors is not None and tensor_name not in tracked_tensors:
            return
        if tensor_name not in self._written_tiles:
            return
        if tile_key not in self._written_tiles[tensor_name]:
            raise DataRaceError(
                f"{reader} read tile {tile_key} of tensor '{tensor_name}' "
                "before its producer posted it"
            )

    # ------------------------------------------------------------------
    # Statistics / reset
    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        self.atomic_operations = 0
        self.semaphore_reads = 0

    def checkpoint(self) -> tuple:
        """Copy the state a timing run mutates, for :meth:`restore`.

        That is the semaphore values, the written-tile sets and the two
        statistics counters; tensors are left out (only functional runs
        write them).
        """
        return (
            {name: list(values) for name, values in self._semaphore_values.items()},
            {name: set(tiles) for name, tiles in self._written_tiles.items()},
            self.semaphore_reads,
            self.atomic_operations,
        )

    def restore(self, checkpoint: tuple) -> None:
        """Return to a :meth:`checkpoint`, keeping the backing lists in place."""
        values, written, self.semaphore_reads, self.atomic_operations = checkpoint
        for name, saved in values.items():
            self._semaphore_values[name][:] = saved
        self._written_tiles.clear()
        self._written_tiles.update((name, set(tiles)) for name, tiles in written.items())

    def snapshot_semaphores(self) -> Dict[str, Tuple[int, ...]]:
        """Return a copy of all semaphore values (useful in tests)."""
        return {name: tuple(array.values) for name, array in self._semaphores.items()}
