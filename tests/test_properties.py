"""Property-based tests (hypothesis) for core invariants."""

from hypothesis import given, settings, strategies as st

from repro.common.dim3 import Dim3, ceil_div
from repro.common.tiles import delinearize, iter_tiles, linearize
from repro.gpu.arch import TESLA_V100
from repro.gpu.costmodel import CostModel
from repro.gpu.kernel import SemWait
from repro.gpu.memory import GlobalMemory
from repro.gpu.occupancy import KernelResources, OccupancyCalculator
from repro.gpu.trace import analytic_utilization, wave_count
from repro.kernels.base import StageGeometry
from repro.cusync.custage import CuStage
from repro.cusync.policies import (
    BatchSync,
    Conv2DTileSync,
    PolicyContext,
    PolicySpec,
    RowSync,
    StridedSync,
    TileSync,
    registered_policies,
    resolve_policy,
)
from repro.cusync.tile_orders import ColumnMajorOrder, GroupedColumnsOrder, RowMajorOrder

grids = st.builds(
    Dim3,
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=4),
)

policies = st.sampled_from([TileSync(), RowSync(), Conv2DTileSync(), BatchSync()])


def _registered_policy_instances(grid: Dim3):
    """One instance of every registered family, resolved for ``grid``.

    Parameterized families get a context-derived instantiation; families
    whose requirements the grid cannot meet (e.g. StridedSync on a prime
    grid.x) are instantiated with stride 1, which is always legal.
    """
    ctx = PolicyContext(
        stage_name="prop", logical_grid=grid,
        strided_groups=2 if grid.x % 2 == 0 and grid.x > 2 else None,
    )
    instances = []
    for family in registered_policies():
        if family == "StridedSync":
            spec = PolicySpec(family, stride=1)
        else:
            spec = PolicySpec(family)
        instances.append(resolve_policy(spec, ctx))
    return instances


class TestArithmeticProperties:
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**4))
    def test_ceil_div_bounds(self, numerator, denominator):
        result = ceil_div(numerator, denominator)
        assert result * denominator >= numerator
        assert (result - 1) * denominator < numerator or result == 0

    @given(grids, st.data())
    def test_linearize_roundtrip(self, grid, data):
        index = data.draw(st.integers(min_value=0, max_value=grid.volume - 1))
        assert linearize(delinearize(index, grid), grid) == index

    @given(grids)
    def test_iter_tiles_is_bijective(self, grid):
        tiles = list(iter_tiles(grid))
        assert len(tiles) == grid.volume == len(set(tiles))


class TestOccupancyProperties:
    @given(
        st.integers(min_value=32, max_value=1024),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=96 * 1024),
    )
    def test_occupancy_within_architecture_limits(self, threads, registers, shared):
        resources = KernelResources(
            threads_per_block=threads, registers_per_thread=registers, shared_memory_per_block=shared
        )
        occupancy = OccupancyCalculator(TESLA_V100).blocks_per_sm(resources)
        assert 1 <= occupancy <= TESLA_V100.max_blocks_per_sm

    @given(st.integers(min_value=0, max_value=4000), st.integers(min_value=1, max_value=4))
    def test_utilization_bounds(self, blocks, occupancy):
        utilization = analytic_utilization(blocks, occupancy, TESLA_V100)
        assert 0.0 <= utilization <= 1.0
        if blocks:
            assert wave_count(blocks, occupancy, TESLA_V100) > 0.0


class TestPolicyProperties:
    @given(grids, policies)
    def test_semaphore_indices_in_range(self, grid, policy):
        count = policy.num_semaphores(grid)
        for tile in iter_tiles(grid):
            index = policy.semaphore_index(tile, grid)
            assert 0 <= index < count
            assert policy.expected_value(tile, grid) >= 1

    @given(grids, policies)
    def test_expected_posts_cover_semaphores(self, grid, policy):
        """If every tile posts once, every semaphore reaches its expected value."""
        counts = {}
        for tile in iter_tiles(grid):
            counts[policy.semaphore_index(tile, grid)] = counts.get(policy.semaphore_index(tile, grid), 0) + 1
        for tile in iter_tiles(grid):
            semaphore = policy.semaphore_index(tile, grid)
            assert counts[semaphore] >= policy.expected_value(tile, grid)

    @given(grids, st.integers(min_value=1, max_value=6))
    def test_strided_sync_indices_in_range(self, grid, stride):
        if grid.x % stride != 0:
            return
        policy = StridedSync(stride=stride)
        count = policy.num_semaphores(grid)
        for tile in iter_tiles(grid):
            assert 0 <= policy.semaphore_index(tile, grid) < count

    @given(grids)
    @settings(max_examples=60, deadline=None)
    def test_every_registered_family_upholds_invariants(self, grid):
        """semaphore_index / expected_value invariants for every registered
        policy family (including user registrations) over randomized grids:
        indices in range, values >= 1, posts cover every semaphore's
        expectation, and validate() accepts the grid."""
        for policy in _registered_policy_instances(grid):
            count = policy.num_semaphores(grid)
            posted = {}
            for tile in iter_tiles(grid):
                index = policy.semaphore_index(tile, grid)
                assert 0 <= index < count, (policy.name, tile)
                assert policy.expected_value(tile, grid) >= 1, (policy.name, tile)
                posted[index] = posted.get(index, 0) + 1
            for tile in iter_tiles(grid):
                index = policy.semaphore_index(tile, grid)
                assert posted[index] >= policy.expected_value(tile, grid), (policy.name, tile)
            policy.validate(grid)

    @given(grids)
    @settings(max_examples=30, deadline=None)
    def test_scalar_override_drives_planning(self, grid):
        """A subclass overriding only ``semaphore_index`` is validated and
        planned through its override, not through its parent's mapping."""

        class ShiftedTileSync(TileSync):
            def semaphore_index(self, tile, grid):
                flat = (tile.z * grid.y + tile.y) * grid.x + tile.x
                return (flat + 1) % grid.volume

        policy = ShiftedTileSync()
        policy.validate(grid)  # the shifted mapping is still a bijection
        geometry = StageGeometry(
            grid=grid, tile_rows=16, tile_cols=32, batch=grid.z, output="OUT"
        )
        producer = CuStage("producer", geometry, policy=policy)
        consumer = CuStage("consumer", geometry)
        consumer.depends_on(producer, "OUT")
        for batch in range(grid.z):
            steps = consumer.plan_reads("OUT", (0, 16 * grid.y), (0, 32 * grid.x), batch)
            for step in steps:
                read_tiles = [Dim3(*read.tile_key) for read in step.reads]
                assert set(step.waits) == {
                    SemWait(producer.semaphore_array, policy.semaphore_index(tile, grid), 1)
                    for tile in read_tiles
                }


class TestTileOrderProperties:
    @given(grids, st.sampled_from(["row", "col"]))
    def test_orders_are_permutations(self, grid, kind):
        order = RowMajorOrder() if kind == "row" else ColumnMajorOrder()
        permutation = order.permutation(grid)
        assert len(permutation) == grid.volume
        assert set(permutation) == set(iter_tiles(grid))

    @given(grids, st.integers(min_value=1, max_value=6))
    def test_grouped_order_is_permutation_when_divisible(self, grid, group):
        if grid.x % group != 0:
            return
        permutation = GroupedColumnsOrder(group=group).permutation(grid)
        assert set(permutation) == set(iter_tiles(grid))


class TestStagePlanningProperties:
    @given(
        st.integers(min_value=1, max_value=8),   # producer grid x
        st.integers(min_value=1, max_value=6),   # producer grid y
        st.integers(min_value=1, max_value=64),  # requested column span
        st.integers(min_value=1, max_value=64),  # requested row span
        st.sampled_from([TileSync(), RowSync(), Conv2DTileSync()]),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_reads_covers_requested_range(self, gx, gy, col_span, row_span, policy):
        """Every consumer read is covered by plan steps, in order, with valid waits."""
        tile_rows, tile_cols = 16, 32
        geometry = StageGeometry(
            grid=Dim3(gx, gy, 1), tile_rows=tile_rows, tile_cols=tile_cols, output="OUT"
        )
        producer = CuStage("producer", geometry, policy=policy)
        consumer = CuStage("consumer", geometry, policy=TileSync())
        consumer.depends_on(producer, "OUT")

        max_rows = gy * tile_rows
        max_cols = gx * tile_cols
        rows = (0, min(row_span, max_rows))
        cols = (0, min(col_span, max_cols))
        steps = consumer.plan_reads("OUT", rows, cols)

        assert steps, "plan must contain at least one step"
        assert steps[0].cols[0] <= cols[0]
        assert steps[-1].cols[1] >= cols[1]
        semaphore_count = policy.num_semaphores(geometry.logical_grid)
        for step in steps:
            for wait in step.waits:
                assert 0 <= wait.index < semaphore_count
                assert wait.required >= 1

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_rowsync_never_needs_more_steps_than_tilesync(self, gx, gy):
        geometry = StageGeometry(grid=Dim3(gx, gy, 1), tile_rows=16, tile_cols=32, output="OUT")
        consumer_geometry = StageGeometry(grid=Dim3(1, 1, 1), tile_rows=16, tile_cols=32, output="X")
        counts = {}
        for name, policy in (("tile", TileSync()), ("row", RowSync())):
            producer = CuStage("producer", geometry, policy=policy)
            consumer = CuStage("consumer", consumer_geometry, policy=TileSync())
            consumer.depends_on(producer, "OUT")
            steps = consumer.plan_reads("OUT", (0, 16 * gy), (0, 32 * gx))
            counts[name] = sum(len(step.waits) for step in steps)
        assert counts["row"] <= counts["tile"]


class TestCostModelProperties:
    @given(st.floats(min_value=0, max_value=1e9), st.floats(min_value=0, max_value=1e9))
    @settings(max_examples=50)
    def test_roofline_at_least_each_component(self, flops, bytes_moved):
        model = CostModel(arch=TESLA_V100)
        roofline = model.roofline_time_us(flops, bytes_moved)
        assert roofline >= model.compute_time_us(flops) - 1e-9
        assert roofline >= model.memory_time_us(bytes_moved) - 1e-9

    @given(st.text(min_size=1, max_size=10), st.integers(min_value=0, max_value=10000))
    @settings(max_examples=50)
    def test_jitter_factor_bounds(self, name, index):
        model = CostModel(arch=TESLA_V100, duration_jitter=0.2)
        factor = model.block_duration_factor(name, index)
        assert 1.0 <= factor < 1.2
