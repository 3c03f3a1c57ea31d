"""Tests for the tiled GeMM kernel."""

import numpy as np
import pytest

from repro.common.dim3 import Dim3
from repro.gpu.arch import TESLA_V100
from repro.gpu.memory import GlobalMemory
from repro.kernels.base import NoSync
from repro.kernels.epilogue import GeLU, Identity, ReLU, SwiGLUMultiply
from repro.kernels.gemm import GemmConfig, GemmKernel, GemmProblem, choose_gemm_config


class TestGemmProblem:
    def test_flops(self):
        assert GemmProblem(m=2, n=3, k=4).flops == pytest.approx(48.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            GemmProblem(m=0, n=1, k=1)


class TestGemmConfigAndGrid:
    def test_grid_shape(self):
        problem = GemmProblem(m=512, n=6144, k=12288)
        config = GemmConfig(tile_m=256, tile_n=256, tile_k=32, split_k=2)
        kernel = GemmKernel("g", problem, config)
        assert kernel.grid == Dim3(24, 2, 2)

    def test_grid_rounds_up(self):
        problem = GemmProblem(m=100, n=300, k=64)
        kernel = GemmKernel("g", problem, GemmConfig(tile_m=64, tile_n=128, tile_k=32))
        assert kernel.grid == Dim3(3, 2, 1)

    def test_occupancy_depends_on_tile_size(self):
        # The Table I occupancies: 256x128 tiles fit two blocks per SM,
        # 256x256 tiles only one.
        problem = GemmProblem(m=256, n=6144, k=12288)
        narrow = GemmKernel("a", problem, GemmConfig(tile_m=256, tile_n=128, tile_k=32))
        wide = GemmKernel("b", problem, GemmConfig(tile_m=256, tile_n=256, tile_k=32))
        assert narrow.occupancy() == 2
        assert wide.occupancy() == 1

    def test_choose_config_small_batch_uses_split_k(self):
        problem = GemmProblem(m=64, n=6144, k=12288)
        config = choose_gemm_config(problem, TESLA_V100)
        assert config.split_k > 1

    def test_choose_config_large_batch_avoids_split_k(self):
        problem = GemmProblem(m=2048, n=6144, k=12288)
        config = choose_gemm_config(problem, TESLA_V100)
        assert config.split_k == 1

    def test_stage_geometry(self):
        problem = GemmProblem(m=512, n=512, k=512, batch=2, c="OUT")
        kernel = GemmKernel("g", problem, GemmConfig(tile_m=256, tile_n=256, tile_k=32, split_k=2))
        geometry = kernel.stage_geometry()
        assert geometry.tile_rows == 256
        assert geometry.split_k == 2
        assert geometry.batch == 2
        assert geometry.output == "OUT"
        assert geometry.logical_grid == Dim3(2, 2, 2)


class TestBlockPrograms:
    def test_program_covers_full_k(self):
        problem = GemmProblem(m=128, n=128, k=256)
        kernel = GemmKernel("g", problem, GemmConfig(tile_m=128, tile_n=128, tile_k=32))
        program = kernel.build_block_program(Dim3(0, 0, 0))
        assert program.total_duration_us > 0.0
        # Without synchronization the main loop is a single chunk + epilogue.
        assert len(program.segments) == 2

    def test_epilogue_posts_only_with_sync(self):
        problem = GemmProblem(m=64, n=64, k=64)
        kernel = GemmKernel("g", problem, GemmConfig(tile_m=64, tile_n=64, tile_k=32), sync=NoSync())
        program = kernel.build_block_program(Dim3(0, 0, 0))
        assert program.post_count == 0

    def test_split_k_partitions_k_range(self):
        problem = GemmProblem(m=64, n=64, k=256)
        kernel = GemmKernel("g", problem, GemmConfig(tile_m=64, tile_n=64, tile_k=32, split_k=2))
        first = kernel.build_block_program(Dim3(0, 0, 0))
        second = kernel.build_block_program(Dim3(0, 0, 1))
        assert first.segments[0].label == "k[0:128]"
        assert second.segments[0].label == "k[128:256]"


class TestFunctionalGemm:
    def _run_functional(self, kernel, tensors):
        kernel.functional = True
        memory = GlobalMemory()
        for name, value in tensors.items():
            memory.store_tensor(name, value)
        kernel.allocate_functional_tensors(memory)
        for z in range(kernel.grid.z):
            for y in range(kernel.grid.y):
                for x in range(kernel.grid.x):
                    program = kernel.build_block_program(Dim3(x, y, z))
                    for segment in program.segments:
                        if segment.compute is not None:
                            segment.compute(memory)
        return memory

    def test_matches_numpy(self, rng):
        problem = GemmProblem(m=96, n=80, k=64)
        kernel = GemmKernel("g", problem, GemmConfig(tile_m=32, tile_n=32, tile_k=32))
        tensors = {
            "A": rng.standard_normal((96, 64)).astype(np.float32),
            "B": rng.standard_normal((64, 80)).astype(np.float32),
        }
        memory = self._run_functional(kernel, tensors)
        np.testing.assert_allclose(memory.tensor("C"), tensors["A"] @ tensors["B"], rtol=1e-4, atol=1e-4)

    def test_gelu_epilogue(self, rng):
        problem = GemmProblem(m=64, n=64, k=32)
        kernel = GemmKernel(
            "g", problem, GemmConfig(tile_m=32, tile_n=32, tile_k=32), epilogue=GeLU()
        )
        tensors = {
            "A": rng.standard_normal((64, 32)).astype(np.float32),
            "B": rng.standard_normal((32, 64)).astype(np.float32),
        }
        memory = self._run_functional(kernel, tensors)
        np.testing.assert_allclose(
            memory.tensor("C"), kernel.reference_result(memory), rtol=1e-4, atol=1e-4
        )

    def test_split_k_gelu_epilogue(self, rng):
        """The fused GeLU applies once per output tile, after its last split."""
        problem = GemmProblem(m=64, n=64, k=128)
        kernel = GemmKernel(
            "g", problem, GemmConfig(tile_m=32, tile_n=32, tile_k=32, split_k=2), epilogue=GeLU()
        )
        tensors = {
            "A": rng.standard_normal((64, 128)).astype(np.float32),
            "B": rng.standard_normal((128, 64)).astype(np.float32),
        }
        memory = self._run_functional(kernel, tensors)
        np.testing.assert_allclose(
            memory.tensor("C"), GeLU().apply(tensors["A"] @ tensors["B"]), rtol=1e-4, atol=1e-4
        )

    def test_batched(self, rng):
        problem = GemmProblem(m=32, n=32, k=32, batch=3)
        kernel = GemmKernel("g", problem, GemmConfig(tile_m=32, tile_n=32, tile_k=32))
        tensors = {
            "A": rng.standard_normal((3, 32, 32)).astype(np.float32),
            "B": rng.standard_normal((3, 32, 32)).astype(np.float32),
        }
        memory = self._run_functional(kernel, tensors)
        np.testing.assert_allclose(memory.tensor("C"), tensors["A"] @ tensors["B"], rtol=1e-4, atol=1e-4)


class TestEpilogues:
    def test_identity(self):
        values = np.array([-1.0, 2.0])
        np.testing.assert_array_equal(Identity().apply(values), values)

    def test_relu(self):
        np.testing.assert_array_equal(ReLU().apply(np.array([-1.0, 2.0])), np.array([0.0, 2.0]))

    def test_gelu_close_to_reference(self):
        values = np.linspace(-3, 3, 13)
        result = GeLU().apply(values)
        assert result[0] == pytest.approx(0.0, abs=1e-2)
        assert result[-1] == pytest.approx(3.0, abs=1e-2)

    def test_swiglu_without_memory_falls_back_to_swish(self):
        values = np.array([0.0, 1.0])
        result = SwiGLUMultiply("gate").apply(values)
        assert result[0] == pytest.approx(0.0)
