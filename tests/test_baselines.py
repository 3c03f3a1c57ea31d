"""Tests for the StreamSync and Stream-K baseline schemes."""

import numpy as np

from repro.kernels.base import NoSync
from repro.kernels.epilogue import GeLU
from repro.kernels.gemm import GemmConfig, GemmKernel, GemmProblem
from repro.kernels.softmax_dropout import SoftmaxDropoutKernel, SoftmaxDropoutProblem
from repro.models import ConvChain
from repro.models.config import RESNET38_LAYERS
from repro.pipeline import linear_graph, run


def mlp_kernels(cost_model, m=96, n=128, k=128):
    problem1 = GemmProblem(m=m, n=n, k=k, a="X", b="W1", c="XW1")
    problem2 = GemmProblem(m=m, n=n, k=n, a="XW1", b="W2", c="XW12")
    config = GemmConfig(tile_m=32, tile_n=32, tile_k=32)
    return (
        GemmKernel("g1", problem1, config, epilogue=GeLU(), cost_model=cost_model),
        GemmKernel("g2", problem2, config, cost_model=cost_model, sync_inputs=("XW1",)),
    )


def mlp_graph(cost_model, **shape):
    return linear_graph(mlp_kernels(cost_model, **shape), ["XW1"])


class TestStreamSyncScheme:
    def test_kernels_serialize(self, small_arch, small_cost_model):
        graph = mlp_graph(small_cost_model)
        result = run(graph, scheme="streamsync", arch=small_arch, cost_model=small_cost_model)
        stats = result.simulation.trace.kernels
        assert stats["g2"].start_time_us >= stats["g1"].end_time_us

    def test_sync_stripped_from_kernels(self, small_arch, small_cost_model):
        graph = mlp_graph(small_cost_model)
        run(graph, scheme="cusync", arch=small_arch, cost_model=small_cost_model)
        run(graph, scheme="streamsync", arch=small_arch, cost_model=small_cost_model)
        assert all(isinstance(kernel.sync, NoSync) for kernel in graph.kernels)

    def test_functional_result(self, small_arch, small_cost_model, rng):
        X = rng.standard_normal((96, 128)).astype(np.float32)
        W1 = rng.standard_normal((128, 128)).astype(np.float32) * 0.1
        W2 = rng.standard_normal((128, 128)).astype(np.float32) * 0.1
        result = run(
            mlp_graph(small_cost_model),
            scheme="streamsync",
            arch=small_arch,
            cost_model=small_cost_model,
            functional=True,
            tensors={"X": X, "W1": W1, "W2": W2},
        )
        np.testing.assert_allclose(
            result.tensor("XW12"), GeLU().apply(X @ W1) @ W2, rtol=1e-3, atol=1e-3
        )


class TestStreamKScheme:
    def test_convert_gemm(self, v100_cost_model):
        k1, _ = mlp_kernels(v100_cost_model, m=256, n=6144, k=4096)
        result = run(linear_graph([k1], []), scheme="streamk", cost_model=v100_cost_model)
        # The GeMM runs as its data-parallel and Stream-K launches.
        assert list(result.simulation.trace.kernels) == ["g1_dp", "g1_sk"]

    def test_convert_leaves_non_gemm(self, v100_cost_model):
        softmax = SoftmaxDropoutKernel("s", SoftmaxDropoutProblem(rows=8, row_length=8))
        result = run(linear_graph([softmax], []), scheme="streamk", cost_model=v100_cost_model)
        assert list(result.simulation.trace.kernels) == ["s"]
        assert isinstance(softmax.sync, NoSync)

    def test_conv_chain_stays_unconverted(self):
        """A Conv2D is an implicit GeMM, but Stream-K converts plain GeMMs
        only: a conv chain runs exactly as under StreamSync."""
        chain = ConvChain(RESNET38_LAYERS[0], batch=1)
        streamk = run(chain.to_graph(), scheme="streamk").simulation.trace
        streamsync = run(chain.to_graph(), scheme="streamsync").simulation.trace
        assert list(streamk.kernels) == list(streamsync.kernels) == ["conv0", "conv1"]
        assert streamk.blocks == streamsync.blocks

    def test_run_mixed_pipeline(self, v100_cost_model):
        problem = GemmProblem(m=256, n=6144, k=2048, a="X", b="W", c="P")
        gemm = GemmKernel("gemm", problem, GemmConfig(256, 256, 32), cost_model=v100_cost_model)
        softmax = SoftmaxDropoutKernel(
            "s",
            SoftmaxDropoutProblem(rows=256, row_length=6144, input="P", output="R"),
            sync_inputs=("P",),
            cost_model=v100_cost_model,
        )
        result = run(
            linear_graph([gemm, softmax], ["P"]), scheme="streamk", cost_model=v100_cost_model
        )
        stats = result.simulation.trace.kernels
        assert result.total_time_us > 0.0
        # One stream: the softmax starts after the Stream-K GeMM finished.
        assert stats["s"].start_time_us >= stats["gemm_sk"].end_time_us
