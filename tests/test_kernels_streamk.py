"""Tests for the Stream-K decomposition."""

import pytest

from repro.gpu.arch import TESLA_V100
from repro.gpu.costmodel import CostModel
from repro.gpu.simulator import GpuSimulator
from repro.kernels.gemm import GemmConfig, GemmProblem
from repro.kernels.streamk import StreamKGemmKernel


@pytest.fixture
def cost_model():
    return CostModel(arch=TESLA_V100, duration_jitter=0.0)


class TestStreamKSchedule:
    def test_full_waves_plus_remainder(self, cost_model):
        problem = GemmProblem(m=2048, n=6144, k=4096)
        kernel = StreamKGemmKernel("sk", problem, GemmConfig(256, 256, 32), cost_model=cost_model)
        schedule = kernel.schedule()
        assert schedule.total_tiles == schedule.data_parallel_tiles + schedule.streamk_tiles
        assert schedule.data_parallel_tiles % schedule.blocks_per_wave == 0
        assert 0 < schedule.streamk_tiles < schedule.blocks_per_wave

    def test_assignments_cover_all_iterations(self, cost_model):
        problem = GemmProblem(m=512, n=6144, k=4096)
        kernel = StreamKGemmKernel("sk", problem, GemmConfig(256, 256, 32), cost_model=cost_model)
        schedule = kernel.schedule()
        total = schedule.streamk_tiles * schedule.iters_per_tile
        assert sum(a.iterations for a in schedule.assignments) == total
        spans = sorted((a.start, a.stop) for a in schedule.assignments)
        cursor = 0
        for start, stop in spans:
            assert start == cursor
            cursor = stop
        assert cursor == total

    def test_no_streamk_kernel_when_exact_waves(self, cost_model):
        # 160 tiles at occupancy 1 on 80 SMs -> exactly 2 full waves.
        problem = GemmProblem(m=256 * 8, n=256 * 20, k=1024)
        kernel = StreamKGemmKernel("sk", problem, GemmConfig(256, 256, 32), cost_model=cost_model)
        schedule = kernel.schedule()
        assert schedule.streamk_tiles == 0
        launches = kernel.build_launches()
        assert len(launches) == 1

    def test_split_tiles_counted(self, cost_model):
        problem = GemmProblem(m=256, n=6144, k=4096)
        kernel = StreamKGemmKernel("sk", problem, GemmConfig(256, 256, 32), cost_model=cost_model)
        schedule = kernel.schedule()
        assert schedule.tiles_split_across_blocks > 0


class TestStreamKExecution:
    def test_launches_run_on_simulator(self, cost_model):
        problem = GemmProblem(m=512, n=6144, k=2048)
        kernel = StreamKGemmKernel("sk", problem, GemmConfig(256, 256, 32), cost_model=cost_model)
        launches = kernel.build_launches()
        result = GpuSimulator(TESLA_V100, cost_model=cost_model).run(launches)
        assert result.total_time_us > 0.0

    def test_improves_partial_wave_utilization(self, cost_model):
        """Stream-K should beat the plain kernel when the final wave is small."""
        from repro.kernels.gemm import GemmKernel
        from repro.pipeline import linear_graph, run

        problem = GemmProblem(m=256, n=6144, k=8192)
        plain = GemmKernel("gemm", problem, GemmConfig(256, 256, 32), cost_model=cost_model)
        graph = linear_graph([plain], [])
        baseline = run(graph, scheme="streamsync", cost_model=cost_model).total_time_us
        result = run(graph, scheme="streamk", cost_model=cost_model).total_time_us
        assert result < baseline
