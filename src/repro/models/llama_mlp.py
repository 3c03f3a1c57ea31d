"""LLaMA's MLP block (Figure 3).

Per GPU, LLaMA's MLP has three weight matrices; state-of-the-art
implementations (which the paper follows) combine the first two GeMMs into
one and fuse the SwiGLU gate into the third::

    XW1V  = X @ [W1 | V]                    # [B*S, H] x [H, 2*H/3]
    XW12  = (Swish(XW1) * XV) @ W2          # SwiGLU fused into the GeMM

where ``XW1 = XW1V[:, :H/3]`` and ``XV = XW1V[:, H/3:]``.  The second kernel
therefore depends on *two* column slices of the first kernel's output; this
reproduction expresses that dependence conservatively as the column range
spanning both slices (the paper's DSL would generate a strided dependence),
which slightly over-synchronizes TileSync but leaves RowSync — the policy
that wins at these sizes — unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.validation import check_positive
from repro.gpu.arch import GpuArchitecture, TESLA_V100
from repro.kernels.gemm import GemmConfig, GemmKernel, GemmProblem, choose_gemm_config
from repro.models.config import LLAMA_65B, TransformerConfig
from repro.models.workload import Workload, _resolve_tuned_pair
from repro.pipeline.graph import Edge, PipelineGraph, StageSpec


def _swish(values: np.ndarray) -> np.ndarray:
    return values / (1.0 + np.exp(-values))


class LlamaMlp(Workload):
    """LLaMA's combined-GeMM + SwiGLU-fused-GeMM MLP on one GPU."""

    def __init__(
        self,
        config: TransformerConfig = LLAMA_65B,
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
            gemm_configs = _resolve_tuned_pair(
                self.workload_key, arch, "llama_gemm1", "llama_gemm2"
            )
        self.gemm_configs = gemm_configs

    @property
    def name(self) -> str:
        return f"{self.config.name} MLP (BxS={self.batch_seq})"

    @property
    def workload_key(self) -> str:
        """The tuned-config table key — also :meth:`to_graph`'s name."""
        return f"llama_mlp_{self.config.name}_b{self.batch_seq}"

    @property
    def intermediate(self) -> int:
        """Per-GPU intermediate width H/3 (Figure 3)."""
        return self.config.mlp_intermediate_per_gpu

    # ------------------------------------------------------------------
    def problems(self) -> Tuple[GemmProblem, GemmProblem]:
        hidden = self.config.hidden
        inner = self.intermediate
        combined = GemmProblem(m=self.batch_seq, n=2 * inner, k=hidden, a="X", b="W1V", c="XW1V")
        gated = GemmProblem(m=self.batch_seq, n=hidden, k=inner, a="XW1V", b="W2", c="XW12")
        return combined, gated

    def _swiglu_transform(self):
        """Element-wise ``Swish(XW1) * XV`` applied to the A operand."""
        inner = self.intermediate

        def transform(values, memory, rows, k_range, batch):
            gated = _swish(values)
            tensor_name = "XW1V"
            if memory is not None and memory.has_tensor(tensor_name):
                full = memory.tensor(tensor_name)
                gate = full[rows[0]:rows[1], inner + k_range[0]:inner + k_range[1]]
                return gated * gate
            return gated

        return transform

    def to_graph(self) -> PipelineGraph:
        combined, gated = self.problems()
        if self.gemm_configs is not None:
            config1, config2 = self.gemm_configs
        else:
            config1 = choose_gemm_config(combined, self.arch)
            config2 = choose_gemm_config(gated, self.arch)

        producer = GemmKernel(
            "llama_gemm1",
            combined,
            config=config1,
            cost_model=self.cost_model,
        )
        consumer = GemmKernel(
            "llama_gemm2",
            gated,
            config=config2,
            sync_inputs=("XW1V",),
            a_transform=self._swiglu_transform(),
            a_transform_flops=6.0,
            cost_model=self.cost_model,
        )

        inner = self.intermediate

        def swiglu_range_map(rows, cols, batch):
            # The consumer reads XW1 columns [c0, c1) *and* XV columns
            # [c0 + inner, c1 + inner); cover both with one span.
            return rows, (cols[0], cols[1] + inner), batch

        return PipelineGraph(
            stages=[
                StageSpec(name="llama_gemm1", kernel=producer, strided_groups=2),
                StageSpec(name="llama_gemm2", kernel=consumer),
            ],
            edges=[
                Edge(
                    producer="llama_gemm1",
                    consumer="llama_gemm2",
                    tensor="XW1V",
                    range_map=swiglu_range_map,
                )
            ],
            name=self.workload_key,
        )

    def input_tensors(self, rng: Optional[np.random.Generator] = None) -> Dict[str, np.ndarray]:
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        hidden = self.config.hidden
        inner = self.intermediate
        scale = 1.0 / np.sqrt(hidden)
        return {
            "X": rng.standard_normal((self.batch_seq, hidden)).astype(np.float32),
            "W1V": (rng.standard_normal((hidden, 2 * inner)) * scale).astype(np.float32),
            "W2": (rng.standard_normal((inner, hidden)) * scale).astype(np.float32),
        }

    def reference_output(self) -> np.ndarray:
        """Numpy reference of ``XW12`` for functional tests."""
        tensors = self.input_tensors()
        combined = tensors["X"] @ tensors["W1V"]
        inner = self.intermediate
        swiglu = _swish(combined[:, :inner]) * combined[:, inner:]
        return swiglu @ tensors["W2"]
