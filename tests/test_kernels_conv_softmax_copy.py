"""Tests for the Conv2D, Softmax-Dropout and copy kernels."""

import numpy as np
import pytest

from repro.common.dim3 import Dim3
from repro.gpu.memory import GlobalMemory
from repro.kernels.conv2d import Conv2dConfig, Conv2dKernel, Conv2dProblem, choose_conv2d_config
from repro.kernels.elementwise import CopyKernel, CopyProblem
from repro.kernels.epilogue import GeLU
from repro.kernels.softmax_dropout import SoftmaxDropoutKernel, SoftmaxDropoutProblem
from repro.pipeline import linear_graph, run


def run_functional(kernel, tensors):
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


class TestConv2dProblem:
    def test_implicit_gemm_view(self):
        problem = Conv2dProblem(batch=2, height=28, width=28, in_channels=128, out_channels=128)
        assert problem.gemm_m == 2 * 28 * 28
        assert problem.gemm_n == 128
        assert problem.gemm_k == 128 * 9

    def test_pixel_coords_roundtrip(self):
        problem = Conv2dProblem(batch=2, height=4, width=5, in_channels=3, out_channels=3)
        assert problem.pixel_coords(0) == (0, 0, 0)
        assert problem.pixel_coords(4 * 5) == (1, 0, 0)
        assert problem.pixel_coords(7) == (0, 1, 2)

    def test_halo_rows(self):
        problem = Conv2dProblem(batch=1, height=8, width=8, in_channels=4, out_channels=4)
        assert problem.halo_rows == 8 + 1

    def test_default_config_adapts_to_channels(self):
        small = Conv2dProblem(batch=1, height=56, width=56, in_channels=64, out_channels=64)
        assert choose_conv2d_config(small).tile_n == 64


class TestConv2dKernel:
    def test_grid(self):
        problem = Conv2dProblem(batch=1, height=28, width=28, in_channels=128, out_channels=128)
        kernel = Conv2dKernel("c", problem, Conv2dConfig(tile_m=128, tile_n=128, tile_k=32))
        assert kernel.grid == Dim3(1, 7, 1)

    def test_functional_matches_direct_convolution(self, rng):
        problem = Conv2dProblem(batch=1, height=6, width=6, in_channels=8, out_channels=8)
        kernel = Conv2dKernel("c", problem, Conv2dConfig(tile_m=16, tile_n=8, tile_k=8))
        tensors = {
            "X": rng.standard_normal((1, 6, 6, 8)).astype(np.float32),
            "W": rng.standard_normal((3, 3, 8, 8)).astype(np.float32) * 0.2,
        }
        memory = run_functional(kernel, tensors)
        np.testing.assert_allclose(
            memory.tensor("Y"), kernel.reference_result(memory), rtol=1e-3, atol=1e-3
        )

    @pytest.mark.parametrize("kernel_rs", [(3, 3), (5, 3), (1, 1)], ids=["3x3", "5x3", "1x1"])
    def test_im2col_gather_matches_loop_reference(self, rng, kernel_rs):
        """The vectorized gather copies exactly what the per-element loop does."""
        kernel_r, kernel_s = kernel_rs
        problem = Conv2dProblem(
            batch=2, height=5, width=7, in_channels=3, out_channels=4,
            kernel_r=kernel_r, kernel_s=kernel_s,
        )
        memory = GlobalMemory()
        memory.store_tensor("X", rng.standard_normal((2, 5, 7, 3)).astype(np.float32))
        kernel = Conv2dKernel("c", problem)
        x = memory.tensor("X")
        taps = kernel_r * kernel_s
        for rows, k_range in [((0, problem.gemm_m), (0, problem.gemm_k)), ((9, 41), (2, problem.gemm_k - 1))]:
            expected = np.zeros((rows[1] - rows[0], k_range[1] - k_range[0]), dtype=np.float32)
            for column, k in enumerate(range(*k_range)):
                dr = (k % taps) // kernel_s - kernel_r // 2
                ds = (k % taps) % kernel_s - kernel_s // 2
                for row_offset, row in enumerate(range(*rows)):
                    image, py, px = problem.pixel_coords(row)
                    if 0 <= py + dr < problem.height and 0 <= px + ds < problem.width:
                        expected[row_offset, column] = x[image, py + dr, px + ds, k // taps]
            np.testing.assert_array_equal(kernel._a_slice(memory, 0, rows, k_range), expected)

    @pytest.mark.parametrize("split_k", [2, 3])
    @pytest.mark.parametrize("scheme", ["streamsync", "cusync"])
    def test_split_k_gelu_runs_functionally(self, rng, scheme, split_k):
        """Each split adds its partial sum; only the tile's last split applies
        the epilogue.  GeLU, unlike ReLU, is not idempotent, so applying it
        once per split would show here."""
        problem = Conv2dProblem(batch=1, height=8, width=8, in_channels=16, out_channels=16)
        config = Conv2dConfig(tile_m=16, tile_n=16, tile_k=16, split_k=split_k)
        kernel = Conv2dKernel("c", problem, config, epilogue=GeLU())
        tensors = {
            "X": rng.standard_normal((1, 8, 8, 16)).astype(np.float32),
            "W": (rng.standard_normal((3, 3, 16, 16)) / 12.0).astype(np.float32),
        }
        result = run(linear_graph([kernel], []), scheme=scheme, functional=True, tensors=tensors)
        np.testing.assert_allclose(
            result.tensor("Y"), kernel.reference_result(result.memory), rtol=1e-4, atol=1e-4
        )

    def test_stage_geometry_output_name(self):
        problem = Conv2dProblem(batch=1, height=8, width=8, in_channels=4, out_channels=4, output="act1")
        kernel = Conv2dKernel("c", problem)
        assert kernel.stage_geometry().output == "act1"


class TestSoftmaxDropout:
    def test_grid_rows(self):
        problem = SoftmaxDropoutProblem(rows=100, row_length=64)
        kernel = SoftmaxDropoutKernel("s", problem, rows_per_block=8)
        assert kernel.grid == Dim3(1, 13, 1)

    def test_functional_softmax_rows_sum_to_one(self, rng):
        problem = SoftmaxDropoutProblem(rows=16, row_length=32, dropout_probability=0.0)
        kernel = SoftmaxDropoutKernel("s", problem, rows_per_block=4)
        tensors = {"P": rng.standard_normal((16, 32)).astype(np.float32)}
        memory = run_functional(kernel, tensors)
        np.testing.assert_allclose(memory.tensor("R").sum(axis=1), np.ones(16), rtol=1e-5)

    def test_functional_matches_reference(self, rng):
        problem = SoftmaxDropoutProblem(rows=16, row_length=32, dropout_probability=0.25, seed=7)
        kernel = SoftmaxDropoutKernel("s", problem, rows_per_block=4)
        tensors = {"P": rng.standard_normal((16, 32)).astype(np.float32)}
        memory = run_functional(kernel, tensors)
        np.testing.assert_allclose(memory.tensor("R"), kernel.reference_result(memory), rtol=1e-5)

    def test_dropout_mask_deterministic(self):
        problem = SoftmaxDropoutProblem(rows=8, row_length=16, dropout_probability=0.5, seed=3)
        kernel = SoftmaxDropoutKernel("s", problem, rows_per_block=4)
        mask_a = kernel._dropout_mask(0, (0, 4))
        mask_b = kernel._dropout_mask(0, (0, 4))
        np.testing.assert_array_equal(mask_a, mask_b)

    def test_invalid_dropout_probability(self):
        with pytest.raises(ValueError):
            SoftmaxDropoutProblem(rows=4, row_length=4, dropout_probability=1.5)


class TestCopyKernel:
    def test_for_block_count(self):
        problem = CopyProblem.for_block_count(1280)
        kernel = CopyKernel("copy", problem)
        assert kernel.grid.volume == 1280

    def test_copy_functional(self, rng):
        problem = CopyProblem(elements=1000, elements_per_block=256)
        kernel = CopyKernel("copy", problem)
        data = rng.standard_normal(1000).astype(np.float32)
        memory = run_functional(kernel, {"input": data})
        np.testing.assert_array_equal(memory.tensor("output"), data)

    def test_high_occupancy(self):
        kernel = CopyKernel("copy", CopyProblem(elements=1024))
        assert kernel.occupancy() == 16
