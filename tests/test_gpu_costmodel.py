"""Tests for the analytical cost model."""

import pytest

from repro.gpu.arch import TESLA_V100
from repro.gpu.costmodel import CostModel


@pytest.fixture
def model():
    return CostModel(arch=TESLA_V100, duration_jitter=0.1)


class TestRoofline:
    def test_compute_time_scales_with_flops(self, model):
        assert model.compute_time_us(2e6) == pytest.approx(2 * model.compute_time_us(1e6))

    def test_memory_time_scales_with_bytes(self, model):
        assert model.memory_time_us(2e6) == pytest.approx(2 * model.memory_time_us(1e6))

    def test_roofline_takes_max(self, model):
        compute_bound = model.roofline_time_us(flops=1e9, bytes_moved=1)
        assert compute_bound == pytest.approx(model.compute_time_us(1e9))
        memory_bound = model.roofline_time_us(flops=1, bytes_moved=1e9)
        assert memory_bound == pytest.approx(model.memory_time_us(1e9))

    def test_occupancy_divides_throughput(self, model):
        assert model.compute_time_us(1e6, occupancy=2) == pytest.approx(2 * model.compute_time_us(1e6))

    def test_zero_work_is_free(self, model):
        assert model.compute_time_us(0.0) == 0.0
        assert model.memory_time_us(0.0) == 0.0

    def test_unknown_precision(self, model):
        with pytest.raises(ValueError):
            model.compute_time_us(1.0, precision="fp64x")

    def test_fp32_slower_than_fp16(self, model):
        assert model.compute_time_us(1e6, precision="fp32") > model.compute_time_us(1e6, precision="fp16")


class TestKernelCosts:
    def test_gemm_chunk_positive(self, model):
        assert model.gemm_mainloop_chunk_us(256, 256, 32) > 0.0

    def test_gemm_chunk_monotone_in_k(self, model):
        assert model.gemm_mainloop_chunk_us(256, 256, 64) > model.gemm_mainloop_chunk_us(256, 256, 32)

    def test_epilogue_includes_fixed_overhead(self, model):
        assert model.gemm_epilogue_us(1, 1) >= model.epilogue_overhead_us

    def test_softmax_tile_positive(self, model):
        assert model.softmax_tile_us(8, 1024) > 0.0

    def test_streamk_fixup_zero_for_single_contributor(self, model):
        assert model.streamk_fixup_us(128, 128, 1) == 0.0
        assert model.streamk_fixup_us(128, 128, 4) > 0.0


class TestSynchronizationCosts:
    def test_wait_cheaper_when_satisfied(self, model):
        assert model.satisfied_wait_overhead_us() < model.wait_overhead_us()

    def test_post_overhead_positive(self, model):
        assert model.post_overhead_us() > 0.0

    def test_launch_latency_matches_arch(self, model):
        assert model.kernel_launch_us() == TESLA_V100.kernel_launch_latency_us


class TestJitter:
    def test_factor_deterministic(self, model):
        assert model.block_duration_factor("k", 3) == model.block_duration_factor("k", 3)

    def test_factor_in_range(self, model):
        for index in range(50):
            factor = model.block_duration_factor("kernel", index)
            assert 1.0 <= factor < 1.0 + model.duration_jitter

    def test_zero_jitter_gives_unity(self):
        model = CostModel(arch=TESLA_V100, duration_jitter=0.0)
        assert model.block_duration_factor("kernel", 7) == 1.0

    def test_different_blocks_differ(self, model):
        factors = {model.block_duration_factor("kernel", index) for index in range(20)}
        assert len(factors) > 1

    def test_vectorized_factors_bit_identical_to_scalar(self, model):
        """The numpy splitmix64 lane must match the scalar path exactly."""
        for name in ("kernel", "mlp_gemm1", "synthetic_consumer"):
            batch = model.block_duration_factors(name, 257)
            scalar = [model.block_duration_factor(name, index) for index in range(257)]
            assert batch == scalar

    def test_vectorized_factors_zero_jitter_and_empty(self):
        model = CostModel(arch=TESLA_V100, duration_jitter=0.0)
        assert model.block_duration_factors("kernel", 3) == [1.0, 1.0, 1.0]
        assert CostModel(arch=TESLA_V100).block_duration_factors("kernel", 0) == []


class TestValidation:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    @pytest.mark.parametrize(
        "name", ["duration_jitter", "tile_fixed_overhead_us", "epilogue_overhead_us"]
    )
    def test_non_finite_or_negative_fields_rejected(self, name, value):
        """A NaN field would make segment durations NaN, which never advance
        the simulated clock: the run would report a wrong time, not fail."""
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
            CostModel(**{name: value})

    def test_zero_fields_accepted(self):
        model = CostModel(duration_jitter=0.0, tile_fixed_overhead_us=0.0, epilogue_overhead_us=0.0)
        assert model.block_duration_factor("k", 3) == 1.0
