"""Tests for CuStage, dependency planning, optimizations and pipelines."""

import numpy as np
import pytest

from repro.common.dim3 import Dim3
from repro.errors import SynchronizationError
from repro.gpu.arch import TESLA_V100
from repro.gpu.costmodel import CostModel
from repro.gpu.kernel import SemPost, row_major_tiles
from repro.gpu.simulator import GpuSimulator
from repro.kernels.base import StageGeometry
from repro.kernels.epilogue import GeLU
from repro.kernels.gemm import GemmConfig, GemmKernel, GemmProblem
from repro.cusync import (
    BatchSync,
    CuStage,
    OptimizationFlags,
    RowSync,
    StridedSync,
    TileSync,
    auto_optimizations,
    decorate_policy_name,
)
from repro.cusync.semaphores import STAGE_START_ARRAY
from repro.pipeline import linear_graph, run


def make_stage(policy=None, grid=Dim3(4, 2, 1), tile=(32, 64), split_k=1, batch=1, **kwargs):
    geometry = StageGeometry(
        grid=grid, tile_rows=tile[0], tile_cols=tile[1], split_k=split_k, batch=batch, output="OUT"
    )
    return CuStage("stage", geometry, policy=policy, **kwargs)


class TestOptimizationFlags:
    def test_suffixes(self):
        assert OptimizationFlags.none().suffix == ""
        assert OptimizationFlags.wrt().suffix == "+WRT"
        assert OptimizationFlags.wr().suffix == "+WR"
        assert OptimizationFlags.r().suffix == "+R"

    def test_decorate_policy_name(self):
        assert decorate_policy_name("TileSync", OptimizationFlags.wrt()) == "TileSync+WRT"

    def test_auto_optimizations_small_kernels(self):
        flags = auto_optimizations(80, 80, 1, 1, TESLA_V100)
        assert flags.avoid_wait_kernel and flags.avoid_custom_tile_order

    def test_auto_optimizations_large_kernels(self):
        flags = auto_optimizations(400, 400, 1, 1, TESLA_V100)
        assert not flags.avoid_wait_kernel
        assert flags.reorder_loads


class TestCuStagePlanning:
    def test_no_dependency_is_single_unguarded_step(self):
        stage = make_stage(TileSync())
        steps = stage.plan_reads("W", (0, 64), (0, 64))
        assert len(steps) == 1
        assert steps[0].waits == ()

    def test_tilesync_one_step_per_producer_column_tile(self):
        producer = make_stage(TileSync())
        consumer = make_stage(TileSync())
        consumer.dependencies = {}
        consumer.depends_on(producer, "OUT")
        steps = consumer.plan_reads("OUT", rows=(0, 32), cols=(0, 256))
        assert len(steps) == 4
        assert all(len(step.waits) == 1 for step in steps)

    def test_rowsync_collapses_to_single_step(self):
        producer = make_stage(RowSync())
        consumer = make_stage(TileSync())
        consumer.depends_on(producer, "OUT")
        steps = consumer.plan_reads("OUT", rows=(0, 32), cols=(0, 256))
        assert len(steps) == 1
        assert steps[0].waits[0].required == producer.logical_grid.x

    def test_split_k_scales_required_value(self):
        producer = make_stage(TileSync(), grid=Dim3(4, 2, 2), split_k=2)
        consumer = make_stage(TileSync())
        consumer.depends_on(producer, "OUT")
        steps = consumer.plan_reads("OUT", rows=(0, 32), cols=(0, 64))
        assert steps[0].waits[0].required == 2

    def test_range_map_translates_coordinates(self):
        producer = make_stage(TileSync())
        consumer = make_stage(TileSync())
        consumer.depends_on(producer, "OUT", range_map=lambda rows, cols, batch: (rows, (cols[0] + 128, cols[1] + 128), batch))
        steps = consumer.plan_reads("OUT", rows=(0, 32), cols=(0, 64))
        # Column 128 falls into producer column tile 2.
        assert steps[0].waits[0].index == TileSync().semaphore_index(Dim3(2, 0, 0), producer.logical_grid)

    def test_posts_only_when_stage_has_consumers(self):
        producer = make_stage(TileSync())
        assert producer.posts_for(Dim3(0, 0, 0), producer.grid) == []
        consumer = make_stage(TileSync())
        consumer.depends_on(producer, "OUT")
        posts = producer.posts_for(Dim3(1, 1, 0), producer.grid)
        assert len(posts) == 1
        assert posts[0].array == producer.semaphore_array

    @pytest.mark.parametrize("policy", [TileSync(), RowSync(), StridedSync(stride=2), BatchSync()])
    def test_post_table_matches_each_tiles_policy(self, policy):
        """Every launch tile of a batched split-K producer posts, per slot,
        its logical tile's semaphore under that slot's policy; tiles that
        post the same indices share one list."""
        split_k, batch = 3, 2
        producer = make_stage(policy, grid=Dim3(4, 3, split_k * batch), split_k=split_k, batch=batch)
        make_stage(TileSync()).depends_on(producer, "OUT")
        make_stage(TileSync()).depends_on(producer, "OUT", policy=RowSync())
        slots = producer.semaphore_slots()
        logical_grid = producer.logical_grid
        by_indices = {}
        for tile in row_major_tiles(producer.grid):
            logical = Dim3(tile.x, tile.y, tile.z // split_k)
            posts = producer.posts_for(tile, producer.grid)
            expected = [SemPost(array, slot.semaphore_index(logical, logical_grid), 1) for array, slot in slots]
            assert posts == expected
            by_indices.setdefault(tuple(post.index for post in posts), []).append(posts)
        assert all(posts is group[0] for group in by_indices.values() for posts in group)

    def test_first_block_posts_target_stage_start(self):
        producer = make_stage(TileSync())
        consumer = make_stage(TileSync())
        consumer.depends_on(producer, "OUT")
        posts = producer.first_block_posts()
        assert posts[0].array == STAGE_START_ARRAY

    def test_duplicate_dependency_rejected(self):
        producer = make_stage(TileSync())
        consumer = make_stage(TileSync())
        consumer.depends_on(producer, "OUT")
        with pytest.raises(SynchronizationError):
            consumer.depends_on(producer, "OUT")

    def test_out_of_range_batch_rejected(self):
        producer = make_stage(TileSync())
        consumer = make_stage(TileSync())
        consumer.depends_on(producer, "OUT")
        with pytest.raises(SynchronizationError):
            consumer.plan_reads("OUT", rows=(0, 8), cols=(0, 8), batch=3)

    def test_tile_order_suppressed_by_t_optimization(self):
        stage = make_stage(TileSync(), optimizations=OptimizationFlags.wrt())
        assert stage.tile_order(stage.grid) is None
        stage = make_stage(TileSync(), optimizations=OptimizationFlags.none())
        assert stage.tile_order(stage.grid) is not None

    def test_wait_kernel_needed_only_for_consumers(self):
        producer = make_stage(TileSync())
        consumer = make_stage(TileSync())
        consumer.depends_on(producer, "OUT")
        assert not producer.needs_wait_kernel()
        assert consumer.needs_wait_kernel()
        relaxed = make_stage(TileSync(), optimizations=OptimizationFlags.wrt())
        relaxed.depends_on(producer, "OTHER")
        assert not relaxed.needs_wait_kernel()


@pytest.fixture
def launches(monkeypatch):
    """The launch list each ``GpuSimulator.run`` receives, one per run."""
    captured = []
    simulate = GpuSimulator.run

    def spy(simulator, launch_list):
        captured.append(list(launch_list))
        return simulate(simulator, launch_list)

    monkeypatch.setattr(GpuSimulator, "run", spy)
    return captured


class TestPipeline:
    def _run_mlp(self, arch, cost_model, policy, optimizations=None, functional=False, tensors=None):
        problem1 = GemmProblem(m=96, n=128, k=128, a="X", b="W1", c="XW1")
        problem2 = GemmProblem(m=96, n=128, k=128, a="XW1", b="W2", c="XW12")
        config = GemmConfig(tile_m=32, tile_n=32, tile_k=32)
        k1 = GemmKernel("g1", problem1, config, epilogue=GeLU(), cost_model=cost_model)
        k2 = GemmKernel("g2", problem2, config, cost_model=cost_model, sync_inputs=("XW1",))
        return run(
            linear_graph([k1, k2], ["XW1"]),
            scheme="cusync",
            policy=policy,
            optimizations=optimizations,
            arch=arch,
            cost_model=cost_model,
            functional=functional,
            tensors=tensors,
        )

    def test_wait_kernel_inserted(self, small_arch, small_cost_model, launches):
        result = self._run_mlp(small_arch, small_cost_model, "TileSync", OptimizationFlags.none())
        (launch_list,) = launches
        assert [launch.name for launch in launch_list] == ["g1", "waitkernel_g2", "g2"]
        # One stream per stage, prioritized by launch order; the wait-kernel
        # blocks its consumer's stream.
        assert [launch.stream.priority for launch in launch_list] == [0, 1, 1]
        assert launch_list[1].stream is launch_list[2].stream
        assert result.wait_kernel_names == ["waitkernel_g2"]

    def test_wait_kernel_polls_at_cost_model_granularity(self, small_arch, small_cost_model, launches):
        """The wait kernel's single busy-wait segment is duration-stepped:
        it parks in the wake index but charges one poll per elapsed
        ``wait_kernel_poll_us`` interval on resume."""
        self._run_mlp(small_arch, small_cost_model, "TileSync", OptimizationFlags.none())
        wait_kernel = next(l for l in launches[0] if l.name == "waitkernel_g2")
        program = wait_kernel.program_builder(Dim3(0, 0, 0))
        (segment,) = program.segments
        assert segment.waits
        assert segment.poll_interval_us == small_cost_model.wait_kernel_poll_us()
        assert segment.duration_us == small_cost_model.wait_kernel_poll_us()

    def test_wait_kernel_elided_with_w(self, small_arch, small_cost_model, launches):
        result = self._run_mlp(small_arch, small_cost_model, "TileSync", OptimizationFlags.wrt())
        assert [launch.name for launch in launches[0]] == ["g1", "g2"]
        assert result.wait_kernel_names == []

    def test_functional_pipeline_matches_numpy(self, small_arch, small_cost_model, rng):
        X = rng.standard_normal((96, 128)).astype(np.float32)
        W1 = rng.standard_normal((128, 128)).astype(np.float32) * 0.1
        W2 = rng.standard_normal((128, 128)).astype(np.float32) * 0.1
        result = self._run_mlp(
            small_arch, small_cost_model, "RowSync", functional=True, tensors={"X": X, "W1": W1, "W2": W2}
        )
        reference = GeLU().apply(X @ W1) @ W2
        np.testing.assert_allclose(result.tensor("XW12"), reference, rtol=1e-3, atol=1e-3)

    def test_pipeline_result_accessors(self, small_arch, small_cost_model):
        result = self._run_mlp(small_arch, small_cost_model, "TileSync")
        assert result.total_time_us > 0.0
        assert result.kernel_duration_us("g1") > 0.0
        assert "g1" in result.summary()
        assert result.total_wait_time_us() >= 0.0
