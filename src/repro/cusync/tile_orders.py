"""Tile processing orders (Section III-C).

The CUDA runtime may schedule thread blocks onto SMs in any order; cuSync
therefore decouples *which block runs* from *which tile it processes*: each
block atomically increments a counter when it starts and processes the tile
at that position of a precomputed order.  The order is chosen so the
consumer consumes tiles in the same order the producer produces them,
minimizing busy-wait time.

The classes here produce the permutation of tiles for a grid; the
:class:`~repro.cusync.custage.CuStage` turns it into the per-dispatch lookup
the simulator uses.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.common.dim3 import Dim3
from repro.common.tiles import delinearize, iter_tiles
from repro.common.validation import check_positive
from repro.errors import SynchronizationError
from repro.gpu.kernel import row_major_tiles


class TileOrder(ABC):
    """A total order over the tiles of a grid."""

    name: str = "order"

    @abstractmethod
    def permutation(self, grid: Dim3) -> List[Dim3]:
        """Tiles in processing order: entry *i* is processed by the *i*-th block."""

    def order_fn(self, grid: Dim3) -> Callable[[int], Dim3]:
        """Lookup function handed to the simulator's dispatch counter."""
        order = self.permutation(grid)
        if len(order) != grid.volume:
            raise SynchronizationError(
                f"{self.name}: permutation has {len(order)} entries for grid {grid} "
                f"with {grid.volume} tiles"
            )
        for tile in order:
            if not grid.contains(tile):
                raise SynchronizationError(f"{self.name}: tile {tile} lies outside grid {grid}")
        if len(set(order)) != len(order):
            raise SynchronizationError(f"{self.name}: permutation repeats tiles for grid {grid}")

        def lookup(dispatch_index: int) -> Dim3:
            return order[dispatch_index]

        return lookup

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RowMajorOrder(TileOrder):
    """x fastest, then y, then z — the paper's ``RowMajor`` function."""

    name = "RowMajor"

    def permutation(self, grid: Dim3) -> List[Dim3]:
        return list(row_major_tiles(grid))

    def order_fn(self, grid: Dim3) -> Callable[[int], Dim3]:
        # The memoized row-major enumeration is a permutation by construction.
        return row_major_tiles(grid).__getitem__


class ColumnMajorOrder(TileOrder):
    """y fastest, then x, then z."""

    name = "ColumnMajor"

    def permutation(self, grid: Dim3) -> List[Dim3]:
        tiles: List[Dim3] = []
        for z in range(grid.z):
            for x in range(grid.x):
                for y in range(grid.y):
                    tiles.append(Dim3(x, y, z))
        return tiles


@dataclass
class GroupedColumnsOrder(TileOrder):
    """Process groups of ``group`` consecutive column tiles of a row together.

    This is the shape of the order cuSyncGen generates for strided
    dependences: all producer tiles one consumer tile needs are scheduled
    consecutively (Section IV-A, "Generate Tile Processing Order").  With
    ``group = grid.x`` it degenerates to row-major order.
    """

    group: int
    name: str = "GroupedColumns"

    def __post_init__(self) -> None:
        check_positive("group", self.group)

    def permutation(self, grid: Dim3) -> List[Dim3]:
        if grid.x % self.group != 0:
            raise SynchronizationError(
                f"GroupedColumnsOrder group {self.group} does not divide grid.x={grid.x}"
            )
        stride = grid.x // self.group
        tiles: List[Dim3] = []
        for z in range(grid.z):
            for y in range(grid.y):
                for start in range(stride):
                    for member in range(self.group):
                        tiles.append(Dim3(start + member * stride, y, z))
        return tiles


@dataclass
class FunctionOrder(TileOrder):
    """Wrap an arbitrary ``linear index -> priority`` function as an order.

    The function receives the tile's row-major linear index and grid and
    must return a unique priority; tiles are processed in increasing
    priority.  This is the escape hatch for generated or experimental
    orders.
    """

    function: Callable[[Dim3, Dim3], int]
    name: str = "FunctionOrder"

    def permutation(self, grid: Dim3) -> List[Dim3]:
        tiles = list(iter_tiles(grid))
        priorities = [self.function(tile, grid) for tile in tiles]
        if len(set(priorities)) != len(priorities):
            raise SynchronizationError(
                f"{self.name}: priority function is not a bijection on grid {grid}"
            )
        paired = sorted(zip(priorities, range(len(tiles))))
        return [tiles[index] for _, index in paired]


@dataclass
class ExplicitOrder(TileOrder):
    """An order given as an explicit list of tiles (used by tests/codegen)."""

    tiles: Sequence[Dim3]
    name: str = "ExplicitOrder"

    def permutation(self, grid: Dim3) -> List[Dim3]:
        return list(self.tiles)
