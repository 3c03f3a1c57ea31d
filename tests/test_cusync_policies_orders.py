"""Tests for synchronization policies and tile processing orders."""

import pytest

from repro.common.dim3 import Dim3
from repro.common.tiles import iter_tiles
from repro.errors import SynchronizationError
from repro.cusync.policies import BatchSync, Conv2DTileSync, RowSync, StridedSync, TileSync
from repro.cusync.tile_orders import (
    ColumnMajorOrder,
    ExplicitOrder,
    FunctionOrder,
    GroupedColumnsOrder,
    RowMajorOrder,
)

GRID = Dim3(6, 4, 2)


class TestTileSync:
    def test_distinct_semaphores(self):
        policy = TileSync()
        indices = {policy.semaphore_index(tile, GRID) for tile in iter_tiles(GRID)}
        assert len(indices) == GRID.volume

    def test_expected_value_one(self):
        assert TileSync().expected_value(Dim3(1, 1, 0), GRID) == 1

    def test_validate_passes(self):
        TileSync().validate(GRID)


class TestRowSync:
    def test_row_shares_semaphore(self):
        policy = RowSync()
        row = [policy.semaphore_index(Dim3(x, 2, 1), GRID) for x in range(GRID.x)]
        assert len(set(row)) == 1

    def test_value_counts_row_tiles(self):
        assert RowSync().expected_value(Dim3(0, 0, 0), GRID) == GRID.x

    def test_fewer_semaphores_than_tilesync(self):
        assert RowSync().num_semaphores(GRID) < TileSync().num_semaphores(GRID)

    def test_paper_example_semaphore_count(self):
        # Figure 4: two GeMMs, TileSync needs 12 synchronizations, RowSync 6.
        grid = Dim3(2, 3, 1)
        assert TileSync().num_semaphores(grid) + TileSync().num_semaphores(Dim3(2, 3, 1)) == 12
        assert RowSync().num_semaphores(grid) + RowSync().num_semaphores(Dim3(2, 3, 1)) == 6


class TestStridedSync:
    def test_strided_tiles_share_semaphore(self):
        policy = StridedSync(stride=2)
        assert policy.semaphore_index(Dim3(0, 1, 0), GRID) == policy.semaphore_index(Dim3(2, 1, 0), GRID)
        assert policy.semaphore_index(Dim3(0, 1, 0), GRID) != policy.semaphore_index(Dim3(1, 1, 0), GRID)

    def test_expected_value_is_group_count(self):
        assert StridedSync(stride=2).expected_value(Dim3(0, 0, 0), GRID) == 3

    def test_rejects_non_dividing_stride(self):
        with pytest.raises(SynchronizationError):
            StridedSync(stride=4).groups(GRID)

    def test_validate(self):
        StridedSync(stride=3).validate(GRID)


class TestOtherPolicies:
    def test_conv2d_tilesync_is_tile_granular(self):
        assert Conv2DTileSync().num_semaphores(GRID) == GRID.volume

    def test_batch_sync(self):
        policy = BatchSync()
        assert policy.num_semaphores(GRID) == GRID.z
        assert policy.expected_value(Dim3(0, 0, 0), GRID) == GRID.x * GRID.y

    def test_validate_catches_bad_policy(self):
        class Broken(TileSync):
            def semaphore_index(self, tile, grid):
                return grid.volume + 1

        with pytest.raises(SynchronizationError):
            Broken().validate(GRID)

    def test_validate_names_tile_with_zero_expected_value(self):
        class ZeroAtOneTile(TileSync):
            def expected_value(self, tile, grid):
                return 0 if tile == Dim3(3, 2, 1) else 1

        message = r"tile \[3, 2, 1\] has non-positive expected value 0"
        with pytest.raises(SynchronizationError, match=message):
            ZeroAtOneTile().validate(GRID)


class TestTileOrders:
    @pytest.mark.parametrize(
        "order",
        [RowMajorOrder(), ColumnMajorOrder(), GroupedColumnsOrder(group=3), GroupedColumnsOrder(group=2)],
        ids=["row", "col", "grouped3", "grouped2"],
    )
    def test_orders_are_permutations(self, order):
        tiles = order.permutation(GRID)
        assert len(tiles) == GRID.volume
        assert set(tiles) == set(iter_tiles(GRID))

    def test_row_major_matches_linear_enumeration(self):
        assert RowMajorOrder().permutation(Dim3(2, 2, 1)) == [
            Dim3(0, 0, 0), Dim3(1, 0, 0), Dim3(0, 1, 0), Dim3(1, 1, 0),
        ]

    def test_column_major_varies_y_first(self):
        assert ColumnMajorOrder().permutation(Dim3(2, 2, 1))[:2] == [Dim3(0, 0, 0), Dim3(0, 1, 0)]

    def test_grouped_columns_schedules_group_members_consecutively(self):
        order = GroupedColumnsOrder(group=3).permutation(Dim3(6, 1, 1))
        assert order[:3] == [Dim3(0, 0, 0), Dim3(2, 0, 0), Dim3(4, 0, 0)]

    def test_grouped_requires_divisible_group(self):
        with pytest.raises(SynchronizationError):
            GroupedColumnsOrder(group=4).permutation(Dim3(6, 1, 1))

    def test_order_fn_lookup(self):
        lookup = RowMajorOrder().order_fn(Dim3(3, 1, 1))
        assert lookup(2) == Dim3(2, 0, 0)

    def test_function_order_bijection_checked(self):
        broken = FunctionOrder(function=lambda tile, grid: 0)
        with pytest.raises(SynchronizationError):
            broken.permutation(Dim3(2, 1, 1))

    def test_explicit_order_must_cover_grid(self):
        partial = ExplicitOrder(tiles=[Dim3(0, 0, 0)])
        with pytest.raises(SynchronizationError):
            partial.order_fn(Dim3(2, 1, 1))

    def test_explicit_order_must_stay_inside_grid(self):
        stray = ExplicitOrder(tiles=[Dim3(0, 0, 0), Dim3(1, 0, 0), Dim3(0, 1, 0), Dim3(7, 3, 0)])
        message = r"ExplicitOrder: tile \[7, 3, 0\] lies outside grid \[2, 2, 1\]"
        with pytest.raises(SynchronizationError, match=message):
            stray.order_fn(Dim3(2, 2, 1))
