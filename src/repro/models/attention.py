"""The Attention block of GPT-3 / LLaMA (Figure 2b).

Per GPU, attention runs five dependent kernels::

    XQKV = X @ WQKV                  # fused Q/K/V projection  [B*S, 3H/8]
    P    = XQ @ Kall                 # attention scores        [B*S, S'+S]
    R    = Dropout(Softmax(P))       # fused softmax-dropout
    T    = R @ Vall                  # weighted values         [B*S, H/8]
    XW12 = T @ W2                    # output projection       [B*S, H]

``Kall``/``Vall`` concatenate the KV-cache of the ``S'`` already-processed
tokens with the keys/values of the ``S`` new tokens; the latter are slices
of ``XQKV``, which is why the score and value GeMMs depend on the first
GeMM through *strided* column slices (the paper's Figure 5b dependence, the
reason the StridedSync policy exists).

During prompt processing ``S' = 0`` and ``B*S`` spans the whole prompt;
during token generation ``S = 1`` and ``S'`` grows.  For simulation the
batch dimension is flattened into the row dimension of every kernel, which
keeps shapes and dependences identical to the per-GPU computation while
avoiding per-batch grids (documented substitution; functional correctness
is validated for B = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.common.validation import check_non_negative, check_positive
from repro.gpu.arch import GpuArchitecture, TESLA_V100
from repro.kernels.gemm import GemmKernel, GemmProblem, choose_gemm_config
from repro.kernels.softmax_dropout import SoftmaxDropoutKernel, SoftmaxDropoutProblem
from repro.models.config import GPT3_145B, TransformerConfig
from repro.models.workload import Workload
from repro.pipeline.graph import Edge, PipelineGraph, StageSpec

__all__ = ["Attention", "QuerySliceMap", "KeySliceMap", "ValueSliceMap"]


@dataclass(frozen=True)
class QuerySliceMap:
    """XQ is XQKV columns ``[0, H/8)``: identity rows, identity columns."""

    def __call__(self, row_range, col_range, batch):
        return row_range, col_range, 0


@dataclass(frozen=True)
class KeySliceMap:
    """The score GeMM reads ``Kall[k, key]``; the new-token keys live in
    XQKV columns ``[offset, offset + width)``.  Producer rows are covered
    conservatively (all new-token rows), columns map to the XK slice."""

    rows: int
    offset: int

    def __call__(self, row_range, col_range, batch):
        return (
            (0, self.rows),
            (self.offset + row_range[0], self.offset + row_range[1]),
            0,
        )


@dataclass(frozen=True)
class ValueSliceMap:
    """The value GeMM reads ``Vall[key, v]``; the new-token values live in
    XQKV columns ``[offset, offset + width)``."""

    rows: int
    offset: int

    def __call__(self, row_range, col_range, batch):
        return (
            (0, self.rows),
            (self.offset + col_range[0], self.offset + col_range[1]),
            0,
        )


class Attention(Workload):
    """The five dependent kernels of one attention block on one GPU."""

    def __init__(
        self,
        config: TransformerConfig = GPT3_145B,
        batch: int = 1,
        seq: int = 512,
        cached: int = 0,
        arch: GpuArchitecture = TESLA_V100,
        dropout: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__(arch=arch)
        check_positive("batch", batch)
        check_positive("seq", seq)
        check_non_negative("cached", cached)
        self.config = config
        self.batch = batch
        self.seq = seq
        self.cached = cached
        self.dropout = dropout
        self.seed = seed

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"{self.config.name} Attention (BxS={self.rows}, S'={self.cached})"

    @property
    def rows(self) -> int:
        """Flattened query rows ``B * S``."""
        return self.batch * self.seq

    @property
    def keys(self) -> int:
        """Number of attended key/value positions ``S' + S``."""
        return self.cached + self.seq

    @property
    def head_width(self) -> int:
        """Per-GPU width of Q, K and V: ``H / 8``."""
        return self.config.attention_head_dim_per_gpu

    # ------------------------------------------------------------------
    def to_graph(self) -> PipelineGraph:
        hidden = self.config.hidden
        width = self.head_width
        rows, keys = self.rows, self.keys

        qkv_problem = GemmProblem(m=rows, n=3 * width, k=hidden, a="X", b="WQKV", c="XQKV")
        score_problem = GemmProblem(m=rows, n=keys, k=width, a="XQ", b="Kall", c="P")
        softmax_problem = SoftmaxDropoutProblem(
            rows=rows, row_length=keys, input="P", output="R",
            dropout_probability=self.dropout, seed=self.seed,
        )
        value_problem = GemmProblem(m=rows, n=width, k=keys, a="R", b="Vall", c="T")
        out_problem = GemmProblem(m=rows, n=hidden, k=width, a="T", b="W2", c="XW12")

        def gemm(name: str, problem: GemmProblem, **kwargs) -> GemmKernel:
            config = choose_gemm_config(problem, self.arch)
            return GemmKernel(name, problem, config=config, cost_model=self.cost_model, **kwargs)

        qkv = gemm("attn_qkv", qkv_problem)
        scores = gemm("attn_scores", score_problem, sync_inputs=("XQ", "Kall"))
        softmax = SoftmaxDropoutKernel(
            "attn_softmax", softmax_problem, sync_inputs=("P",),
            cost_model=self.cost_model,
        )
        values = gemm("attn_values", value_problem, sync_inputs=("R", "Vall"))
        output = gemm("attn_out", out_problem, sync_inputs=("T",))

        # With a KV cache (``cached > 0``) most keys pre-exist in memory;
        # the dependence on XQKV's key/value slices remains, only its
        # weight shrinks — the graph is identical in both phases.
        return PipelineGraph(
            stages=[
                StageSpec(name="attn_qkv", kernel=qkv, strided_groups=3),
                StageSpec(name="attn_scores", kernel=scores),
                StageSpec(name="attn_softmax", kernel=softmax),
                StageSpec(name="attn_values", kernel=values),
                StageSpec(name="attn_out", kernel=output),
            ],
            edges=[
                Edge("attn_qkv", "attn_scores", tensor="XQ", range_map=QuerySliceMap()),
                # XK lives in XQKV columns [2H/8, 3H/8).
                Edge(
                    "attn_qkv", "attn_scores", tensor="Kall",
                    range_map=KeySliceMap(rows=rows, offset=2 * width),
                ),
                Edge("attn_scores", "attn_softmax", tensor="P"),
                Edge("attn_softmax", "attn_values", tensor="R"),
                # XV lives in XQKV columns [H/8, 2H/8).
                Edge(
                    "attn_qkv", "attn_values", tensor="Vall",
                    range_map=ValueSliceMap(rows=rows, offset=width),
                ),
                Edge("attn_values", "attn_out", tensor="T"),
            ],
            name=f"attn_{self.config.name}_s{self.seq}_c{self.cached}",
        )

    # ------------------------------------------------------------------
    # Functional simulation
    # ------------------------------------------------------------------
    def input_tensors(self, rng: Optional[np.random.Generator] = None) -> Dict[str, np.ndarray]:
        """Inputs plus aliased views of one ``(S' + B*S, 3H/8)`` buffer.

        The buffer's top ``S'`` rows hold the KV cache (in its key and value
        column slices) and the rows below are ``XQKV``, the first GeMM's
        output.  ``XQ``, ``Kall`` and ``Vall`` are numpy *views* into the
        buffer, so values written by the first GeMM are immediately visible
        to its consumers exactly like slices of GPU global memory, and the
        score and value GeMMs read the cached and the new keys and values
        together.
        """
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        hidden = self.config.hidden
        width = self.head_width
        cached = self.cached
        scale = 1.0 / np.sqrt(hidden)

        buffer = np.zeros((cached + self.rows, 3 * width), dtype=np.float32)
        xqkv = buffer[cached:]
        tensors = {
            "X": rng.standard_normal((self.rows, hidden)).astype(np.float32),
            "WQKV": (rng.standard_normal((hidden, 3 * width)) * scale).astype(np.float32),
            "W2": (rng.standard_normal((width, hidden)) * scale).astype(np.float32),
            "XQKV": xqkv,
            "XQ": xqkv[:, :width],
            "Kall": buffer[:, 2 * width:].T,
            "Vall": buffer[:, width:2 * width],
        }
        buffer[:cached, width:] = rng.standard_normal((cached, 2 * width)).astype(np.float32)
        return tensors

    def reference_output(self) -> np.ndarray:
        """Numpy reference of the attention block output.

        The new tokens' keys and values land below the KV cache rows of the
        input buffer, so ``Kall`` and ``Vall`` span every attended position.
        """
        tensors = self.input_tensors()
        tensors["XQKV"][...] = tensors["X"] @ tensors["WQKV"]
        scores = tensors["XQ"] @ tensors["Kall"]
        shifted = scores - scores.max(axis=1, keepdims=True)
        weights = np.exp(shifted)
        weights /= weights.sum(axis=1, keepdims=True)
        if self.dropout > 0.0:
            raise NotImplementedError("reference_output assumes dropout_probability == 0")
        attended = weights @ tensors["Vall"]
        return attended @ tensors["W2"]
