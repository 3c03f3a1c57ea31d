"""GPT-3's Multi-Layer Perceptron block (Figure 2a).

Per GPU (8-way model parallelism), the MLP is two dependent GeMMs::

    XW1  = GeLU(X @ W1)     # [B*S, H] x [H, 4H/8]   (GeLU fused)
    XW12 = XW1 @ W2         # [B*S, 4H/8] x [4H/8, H]

The second GeMM consumes every column tile of an output row of the first
GeMM, which is the canonical cuSync example the paper uses throughout
(Figures 1, 4 and 5a, Tables I and IV).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.validation import check_positive
from repro.gpu.arch import GpuArchitecture, TESLA_V100
from repro.kernels.epilogue import GeLU
from repro.kernels.gemm import GemmConfig, GemmKernel, GemmProblem, choose_gemm_config
from repro.models.config import GPT3_145B, TransformerConfig
from repro.models.workload import Workload, _resolve_tuned_pair
from repro.pipeline.graph import Edge, PipelineGraph, StageSpec


def gpt3_mlp_gemm_configs(batch_seq: int) -> Tuple[GemmConfig, GemmConfig]:
    """Tile configurations matching the grids the paper reports in Table IV.

    These presets apply to GPT-3's shapes (H = 12288, intermediate 6144 per
    GPU); other shapes fall back to :func:`choose_gemm_config`.
    """
    if batch_seq <= 64:
        return (
            GemmConfig(tile_m=64, tile_n=256, tile_k=32, split_k=4),
            GemmConfig(tile_m=64, tile_n=256, tile_k=32, split_k=3),
        )
    if batch_seq <= 128:
        return (
            GemmConfig(tile_m=128, tile_n=256, tile_k=32, split_k=3),
            GemmConfig(tile_m=128, tile_n=256, tile_k=32, split_k=3),
        )
    if batch_seq <= 256:
        return (
            GemmConfig(tile_m=256, tile_n=128, tile_k=32, split_k=4),
            GemmConfig(tile_m=256, tile_n=128, tile_k=32, split_k=2),
        )
    if batch_seq <= 1024:
        return (
            GemmConfig(tile_m=256, tile_n=256, tile_k=32, split_k=2),
            GemmConfig(tile_m=256, tile_n=256, tile_k=32, split_k=1),
        )
    return (
        GemmConfig(tile_m=256, tile_n=256, tile_k=32, split_k=1),
        GemmConfig(tile_m=256, tile_n=256, tile_k=32, split_k=1),
    )


class GptMlp(Workload):
    """The two dependent GeMMs of a GPT-3 style MLP on one GPU."""

    def __init__(
        self,
        config: TransformerConfig = GPT3_145B,
        batch_seq: int = 512,
        arch: GpuArchitecture = TESLA_V100,
        gemm_configs: Optional[Tuple[GemmConfig, GemmConfig]] = None,
        seed: int = 0,
        tuned: bool = False,
    ) -> None:
        super().__init__(arch=arch)
        check_positive("batch_seq", batch_seq)
        self.config = config
        self.batch_seq = batch_seq
        self.seed = seed
        self.tuned = tuned
        if gemm_configs is None and tuned:
            gemm_configs = _resolve_tuned_pair(self.workload_key, arch, "mlp_gemm1", "mlp_gemm2")
        if gemm_configs is None and config.hidden == GPT3_145B.hidden:
            gemm_configs = gpt3_mlp_gemm_configs(batch_seq)
        self.gemm_configs = gemm_configs  # None: chosen per problem in to_graph

    @property
    def name(self) -> str:
        return f"{self.config.name} MLP (BxS={self.batch_seq})"

    @property
    def workload_key(self) -> str:
        """The tuned-config table key — also :meth:`to_graph`'s name."""
        return f"mlp_{self.config.name}_b{self.batch_seq}"

    # ------------------------------------------------------------------
    def problems(self) -> Tuple[GemmProblem, GemmProblem]:
        hidden = self.config.hidden
        intermediate = self.config.mlp_intermediate_per_gpu
        first = GemmProblem(m=self.batch_seq, n=intermediate, k=hidden, a="X", b="W1", c="XW1")
        second = GemmProblem(m=self.batch_seq, n=hidden, k=intermediate, a="XW1", b="W2", c="XW12")
        return first, second

    def to_graph(self) -> PipelineGraph:
        first, second = self.problems()
        if self.gemm_configs is not None:
            config1, config2 = self.gemm_configs
        else:
            config1 = choose_gemm_config(first, self.arch)
            config2 = choose_gemm_config(second, self.arch)
        producer = GemmKernel(
            "mlp_gemm1",
            first,
            config=config1,
            epilogue=GeLU(),
            cost_model=self.cost_model,
        )
        consumer = GemmKernel(
            "mlp_gemm2",
            second,
            config=config2,
            sync_inputs=("XW1",),
            cost_model=self.cost_model,
        )
        return PipelineGraph(
            stages=[
                StageSpec(name="mlp_gemm1", kernel=producer),
                StageSpec(name="mlp_gemm2", kernel=consumer),
            ],
            edges=[Edge(producer="mlp_gemm1", consumer="mlp_gemm2", tensor="XW1")],
            name=self.workload_key,
        )

    def input_tensors(self, rng: Optional[np.random.Generator] = None) -> Dict[str, np.ndarray]:
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        hidden = self.config.hidden
        intermediate = self.config.mlp_intermediate_per_gpu
        scale = 1.0 / np.sqrt(hidden)
        return {
            "X": rng.standard_normal((self.batch_seq, hidden)).astype(np.float32),
            "W1": (rng.standard_normal((hidden, intermediate)) * scale).astype(np.float32),
            "W2": (rng.standard_normal((intermediate, hidden)) * scale).astype(np.float32),
        }

    def reference_output(self) -> np.ndarray:
        """Numpy reference for the functional result ``XW12``."""
        tensors = self.input_tensors()
        hidden_activation = GeLU().apply(tensors["X"] @ tensors["W1"])
        return hidden_activation @ tensors["W2"]
