"""Tests for the model workloads: configs, MLPs, Attention and Conv chains."""

import numpy as np
import pytest

from golden_trace_utils import _serialize_result
from repro.errors import ModelConfigError
from repro.gpu.arch import TESLA_V100
from repro.models import (
    Attention,
    ConvChain,
    GPT3_145B,
    GptMlp,
    LLAMA_65B,
    LlamaMlp,
    RESNET38_LAYERS,
    VGG19_LAYERS,
    TransformerConfig,
    resnet38_config,
    vgg19_config,
)
from repro.kernels.gemm import GemmConfig, GemmKernel
from repro.models.mlp import gpt3_mlp_gemm_configs
from repro.pipeline import Session, run
from repro.pipeline.executors import resolve_policy
from repro.cusync.policies import RowSync, StridedSync, TileSync

TINY = TransformerConfig(name="tiny", hidden=256, layers=2, tensor_parallel=8)
TINY_SWIGLU = TransformerConfig(name="tiny-swiglu", hidden=192, layers=2, tensor_parallel=8, swiglu=True)


class TestConfigs:
    def test_gpt3_shapes_match_paper(self):
        assert GPT3_145B.hidden == 12288
        assert GPT3_145B.mlp_intermediate_per_gpu == 6144
        assert GPT3_145B.attention_qkv_per_gpu == 4608
        assert GPT3_145B.attention_head_dim_per_gpu == 1536

    def test_llama_shapes_match_paper(self):
        assert LLAMA_65B.hidden == 8192
        assert LLAMA_65B.swiglu
        assert LLAMA_65B.mlp_intermediate_per_gpu == 8192 // 3

    def test_invalid_parallelism_rejected(self):
        with pytest.raises(ModelConfigError):
            TransformerConfig(name="bad", hidden=100, layers=1, tensor_parallel=8)

    def test_table2_layer_counts(self):
        assert sum(spec.layers for spec in RESNET38_LAYERS) == 16
        assert all(spec.convs_per_layer == 2 for spec in RESNET38_LAYERS)
        assert [spec.convs_per_layer for spec in VGG19_LAYERS] == [2, 2, 4, 4]
        assert resnet38_config().total_conv_layers() == 32
        assert vgg19_config().name == "VGG-19"

    def test_table_iv_grid_presets(self):
        # Batch 512 uses 256x256 tiles with split-K 2 / 1 (Table IV).
        first, second = gpt3_mlp_gemm_configs(512)
        assert (first.tile_n, first.split_k) == (256, 2)
        assert (second.tile_n, second.split_k) == (256, 1)
        small_first, _ = gpt3_mlp_gemm_configs(64)
        assert small_first.split_k == 4


#: Sizes at which ``to_graph`` picks split-K for GeMMs with fused epilogues
#: (GeLU, the SwiGLU A transform) and for attention's QKV and output GeMMs.
SPLIT_K_WORKLOADS = {
    "GptMlp": lambda: GptMlp(
        config=TransformerConfig(name="gpt-h1536", hidden=1536, layers=2, tensor_parallel=8),
        batch_seq=64,
    ),
    "LlamaMlp": lambda: LlamaMlp(
        config=TransformerConfig(
            name="llama-h1536", hidden=1536, layers=2, tensor_parallel=8, swiglu=True
        ),
        batch_seq=64,
    ),
    "Attention": lambda: Attention(
        config=TransformerConfig(name="gpt-h3072", hidden=3072, layers=2, tensor_parallel=8),
        batch=1,
        seq=64,
        dropout=0.0,
    ),
}


def _relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(np.abs(actual - expected).max() / np.abs(expected).max())


class TestFunctionalTimingGraphs:
    """Functional runs use the timing graphs: functional is a property of the run."""

    @pytest.mark.parametrize(
        "scheme,policy",
        [
            ("streamsync", "TileSync"),
            ("cusync", "TileSync"),
            ("cusync", "RowSync"),
            ("cusync", "StridedTileSync"),
        ],
    )
    @pytest.mark.parametrize("name", sorted(SPLIT_K_WORKLOADS))
    def test_split_k_timing_graph_matches_numpy(self, name, scheme, policy, run_functional):
        workload = SPLIT_K_WORKLOADS[name]()
        stages = workload.to_graph().stages
        split_ks = [s.kernel.config.split_k for s in stages if isinstance(s.kernel, GemmKernel)]
        assert max(split_ks) > 1, split_ks
        result = run_functional(workload, scheme=scheme, policy=policy)
        assert _relative_error(result.tensor("XW12"), workload.reference_output()) < 1e-4

    def test_one_session_alternates_functional_and_timing_runs(self):
        workload = SPLIT_K_WORKLOADS["GptMlp"]()
        graph = workload.to_graph()
        session = Session(arch=workload.arch)

        def functional_error():
            result = session.run(graph, functional=True, tensors=workload.input_tensors())
            return _relative_error(result.tensor("XW12"), workload.reference_output())

        assert functional_error() < 1e-4
        timing = session.run(graph)
        fresh = Session(arch=workload.arch).run(workload.to_graph())
        assert _serialize_result(timing) == _serialize_result(fresh)
        assert not timing.memory.has_tensor("XW12")
        assert functional_error() < 1e-4


class TestPolicySelection:
    def test_named_policies(self):
        stage = GptMlp(config=TINY, batch_seq=64).to_graph().stage("mlp_gemm1")
        assert isinstance(resolve_policy("TileSync", stage), TileSync)
        assert isinstance(resolve_policy("RowSync", stage), RowSync)

    def test_strided_policy_uses_group_hint(self):
        qkv = Attention(config=TINY, batch=1, seq=64).to_graph().stage("attn_qkv")
        policy = resolve_policy("StridedTileSync", qkv)
        assert isinstance(policy, (StridedSync, TileSync))

    def test_unknown_policy_rejected(self):
        stage = GptMlp(config=TINY, batch_seq=64).to_graph().stage("mlp_gemm1")
        with pytest.raises(ModelConfigError):
            resolve_policy("MagicSync", stage)


class TestGptMlp:
    def test_build_structure(self):
        graph = GptMlp(config=TINY, batch_seq=96).to_graph()
        assert len(graph.stages) == 2
        assert graph.in_edges("mlp_gemm2")[0].tensor == "XW1"

    def test_grid_matches_table_i_at_batch_256(self):
        producer = GptMlp(batch_seq=256).to_graph().stage("mlp_gemm1").kernel
        assert producer.grid.volume == 192
        assert producer.occupancy() == 2

    def test_functional_correctness_tilesync(self, run_functional):
        workload = GptMlp(config=TINY, batch_seq=96)
        result = run_functional(workload, policy="TileSync")
        np.testing.assert_allclose(
            result.tensor("XW12"), workload.reference_output(), rtol=1e-3, atol=1e-3
        )

    def test_functional_correctness_streamsync(self, run_functional):
        workload = GptMlp(config=TINY, batch_seq=96)
        result = run_functional(workload, scheme="streamsync")
        np.testing.assert_allclose(
            result.tensor("XW12"), workload.reference_output(), rtol=1e-3, atol=1e-3
        )

    @pytest.mark.parametrize(
        "scheme,policy",
        [("streamsync", "TileSync"), ("cusync", "TileSync"), ("cusync", "RowSync")],
    )
    def test_split_k_timing_graph_runs_functionally(self, scheme, policy):
        """The fused GeLU applies once per output tile, after its last split."""
        workload = GptMlp(config=TINY, batch_seq=64, gemm_configs=(GemmConfig(64, 64, 32, 2),) * 2)
        result = run(
            workload.to_graph(),
            scheme=scheme,
            policy=policy,
            arch=workload.arch,
            cost_model=workload.cost_model,
            functional=True,
            tensors=workload.input_tensors(),
        )
        np.testing.assert_allclose(
            result.tensor("XW12"), workload.reference_output(), rtol=1e-4, atol=1e-4
        )

    def test_cusync_beats_streamsync_at_512(self):
        workload = GptMlp(batch_seq=512)
        improvement = workload.improvement_over_streamsync(policy="RowSync")
        assert improvement > 0.10

    def test_best_policy_returns_all_candidates(self):
        results = GptMlp(config=TINY, batch_seq=96).best_policy()
        assert set(results) == {"StreamSync", "TileSync", "RowSync"}


class TestLlamaMlp:
    def test_combined_gemm_width(self):
        graph = LlamaMlp(config=TINY_SWIGLU, batch_seq=64).to_graph()
        first = graph.stage("llama_gemm1").kernel
        assert first.problem.n == 2 * (TINY_SWIGLU.hidden // 3)

    def test_functional_correctness(self, run_functional):
        workload = LlamaMlp(config=TINY_SWIGLU, batch_seq=64)
        result = run_functional(workload, policy="RowSync")
        np.testing.assert_allclose(
            result.tensor("XW12"), workload.reference_output(), rtol=1e-3, atol=1e-3
        )

    def test_timing_improvement_at_1024(self):
        workload = LlamaMlp(batch_seq=1024)
        assert workload.improvement_over_streamsync(policy="TileSync") > 0.05


#: Attention ``(seq, cached)`` shapes run functionally: a prompt, and token
#: generation of one or four new tokens over a KV cache.
ATTENTION_SHAPES = [(64, 0), (1, 32), (4, 16), (1, 100)]


class TestAttention:
    def test_build_has_five_kernels_and_strided_hint(self):
        graph = Attention(config=TINY, batch=1, seq=64).to_graph()
        assert len(graph.stages) == 5
        assert graph.stage("attn_qkv").strided_groups == 3
        assert {edge.tensor for edge in graph.in_edges("attn_scores")} == {"XQ", "Kall"}

    def test_rows_and_keys(self):
        attention = Attention(config=TINY, batch=2, seq=4, cached=16)
        assert attention.rows == 8
        assert attention.keys == 20

    @pytest.mark.parametrize(
        "policy,seq,cached",
        [
            pytest.param(
                policy, seq, cached,
                id=f"{policy}-seq{seq}-cached{cached}" if cached else policy,
            )
            for seq, cached in ATTENTION_SHAPES
            for policy in ("TileSync", "RowSync", "StridedTileSync")
        ],
    )
    def test_functional_correctness(self, policy, seq, cached, run_functional):
        workload = Attention(config=TINY, batch=1, seq=seq, cached=cached, dropout=0.0)
        result = run_functional(workload, policy=policy)
        np.testing.assert_allclose(
            result.tensor("XW12"), workload.reference_output(), rtol=1e-4, atol=1e-4
        )

    @pytest.mark.parametrize("seq,cached", ATTENTION_SHAPES)
    def test_streamsync_functional(self, seq, cached, run_functional):
        workload = Attention(config=TINY, batch=1, seq=seq, cached=cached, dropout=0.0)
        result = run_functional(workload, scheme="streamsync")
        np.testing.assert_allclose(
            result.tensor("XW12"), workload.reference_output(), rtol=1e-4, atol=1e-4
        )

    def test_kv_cache_changes_key_count(self):
        graph = Attention(config=TINY, batch=1, seq=1, cached=32).to_graph()
        score_kernel = graph.stage("attn_scores").kernel
        assert score_kernel.problem.n == 33


class TestConvChain:
    def test_build_chain_dependencies(self):
        graph = ConvChain(RESNET38_LAYERS[1], batch=1).to_graph()
        assert len(graph.stages) == 2
        assert graph.in_edges("conv1")[0].tensor == "act1"

    def test_vgg_four_conv_chain(self):
        spec = VGG19_LAYERS[2]
        chain = ConvChain(spec, batch=1)
        assert len(chain.to_graph().stages) == 4

    def test_functional_correctness(self, run_functional):
        from repro.models.config import ConvLayerSpec

        spec = ConvLayerSpec(image=8, channels=16, kernel=3, convs_per_layer=2, layers=1)
        chain = ConvChain(spec, batch=1)
        result = run_functional(chain, policy="Conv2DTileSync")
        np.testing.assert_allclose(
            result.tensor("act2"), chain.reference_output(), rtol=1e-2, atol=1e-2
        )

    def test_cusync_improves_conv_layer(self):
        chain = ConvChain(RESNET38_LAYERS[1], batch=4)
        assert chain.improvement_over_streamsync(policy="Conv2DTileSync") > 0.05
