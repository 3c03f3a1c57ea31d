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

from typing import Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from repro.common.validation import check_positive
from repro.errors import DataRaceError, SimulationError

#: Shared immutable empty set used as the miss default in tile lookups, so
#: the hot ``tile_written`` / ``written_tiles`` paths never allocate.
_EMPTY_TILE_SET: frozenset = frozenset()


class GlobalMemory:
    """The device's global memory as seen by the simulator.

    Three kinds of state are tracked:

    ``semaphores``
        Named arrays of integer semaphores allocated by cuSync stages, one
        ``name -> list[int]`` store.  The simulator is their only reader
        and writer: it resolves the value lists once per run
        (:meth:`semaphore_backing_map`), polls and posts them directly,
        and adds its poll and atomic counts to :attr:`semaphore_reads`
        and :attr:`atomic_operations` when the run ends.
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
        self._semaphores: Dict[str, List[int]] = {}
        self._tensors: Dict[str, np.ndarray] = {}
        self._written_tiles: Dict[str, Set[Hashable]] = {}
        #: Total number of atomic operations performed, for overhead studies.
        self.atomic_operations: int = 0
        #: Total number of semaphore polls performed.
        self.semaphore_reads: int = 0

    # ------------------------------------------------------------------
    # Semaphores
    # ------------------------------------------------------------------
    def alloc_semaphores(self, name: str, size: int) -> None:
        """Allocate (or re-zero) a named array of ``size`` semaphores.

        Re-allocating a name at its existing size zeroes its value list in
        place, so a list a caller took from :meth:`semaphore_backing_map`
        survives the warmup/measure re-allocations of repeated runs.
        """
        check_positive("size", size)
        values = self._semaphores.get(name)
        if values is not None and len(values) == size:
            values[:] = [0] * size
        else:
            self._semaphores[name] = [0] * size

    def semaphore_backing_map(self) -> Dict[str, List[int]]:
        """A new dict of every array's live value list, by name.

        The lists are the storage itself (mutated only in place), so a
        holder indexes them directly for a whole run; it owns the bounds
        checks and adds its poll/atomic counts to :attr:`semaphore_reads`
        and :attr:`atomic_operations`.
        """
        return dict(self._semaphores)

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
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self) -> tuple:
        """Copy the state a timing run mutates, for :meth:`restore`.

        That is the semaphore values, the written-tile sets and the two
        statistics counters; tensors are left out (only functional runs
        write them).
        """
        return (
            {name: list(values) for name, values in self._semaphores.items()},
            {name: set(tiles) for name, tiles in self._written_tiles.items()},
            self.semaphore_reads,
            self.atomic_operations,
        )

    def restore(self, checkpoint: tuple) -> None:
        """Return to a :meth:`checkpoint`, keeping the backing lists in place."""
        values, written, self.semaphore_reads, self.atomic_operations = checkpoint
        for name, saved in values.items():
            self._semaphores[name][:] = saved
        self._written_tiles.clear()
        self._written_tiles.update((name, set(tiles)) for name, tiles in written.items())

    def snapshot_semaphores(self) -> Dict[str, Tuple[int, ...]]:
        """Return a copy of all semaphore values (useful in tests)."""
        return {name: tuple(values) for name, values in self._semaphores.items()}
