"""Serving-batch workload adapters: KV-cache-shaped attention + MLP graphs.

The serving loop (:mod:`repro.serving`) executes one *iteration* at a
time: a prefill iteration processes the freshly admitted prompts, a
decode iteration advances every running sequence by one token.  Either
way the work on the GPU is the same transformer layer — the fused-QKV
attention block of :mod:`repro.models.attention` followed by the
two-GeMM MLP of :mod:`repro.models.mlp` — only its *shapes* change with
the batch composition:

``rows``
    Total new tokens processed this iteration, flattened into the row
    dimension of every kernel (the sum of admitted prompt lengths for a
    prefill, the number of running sequences for a decode).
``keys``
    Attended key/value positions per query — the KV-cache depth.  A
    prefill attends over the prompt itself; a decode attends over the
    longest sequence's full context (shorter sequences are padded up,
    the usual padded-batch modelling substitution).

Attention and MLP are fused into **one seven-stage graph** (the MLP's
first GeMM consumes the attention output through a plain edge), so an
iteration is a single `Session` evaluation.  The Q/K/V slice dependences
reuse the attention module's frozen-dataclass range maps
(:class:`~repro.models.attention.QuerySliceMap` /
:class:`~repro.models.attention.KeySliceMap` /
:class:`~repro.models.attention.ValueSliceMap`), so every serving graph
has a portable :meth:`~repro.pipeline.graph.PipelineGraph.structural_fingerprint`
— rebuilt graphs of the same bucketed shape share
:class:`~repro.pipeline.Session` sweep-cache (and disk-store) entries,
which is what makes a long serving simulation cheap: only novel batch
shapes simulate.

:class:`ServingGraphCache` buckets raw batch compositions to a small set
of shapes (rows up to a multiple of ``row_bucket``, keys up to a multiple
of ``kv_bucket``) and memoizes one graph object per bucket — repeated
shapes reuse the same object *and* the same fingerprint.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.common.validation import check_positive
from repro.gpu.arch import ArchLike, TESLA_V100
from repro.gpu.costmodel import CostModel
from repro.kernels.epilogue import GeLU
from repro.kernels.gemm import GemmConfig, GemmKernel, GemmProblem, choose_gemm_config
from repro.kernels.softmax_dropout import SoftmaxDropoutKernel, SoftmaxDropoutProblem
from repro.models.attention import KeySliceMap, QuerySliceMap, ValueSliceMap
from repro.models.config import GPT3_145B, TransformerConfig
from repro.models.workload import Workload
from repro.pipeline.graph import Edge, PipelineGraph, StageSpec

__all__ = [
    "ServingLayer",
    "ServingGraphCache",
    "bucketed",
]


def bucketed(value: int, bucket: int) -> int:
    """``value`` rounded up to a multiple of ``bucket`` (minimum one bucket)."""
    check_positive("bucket", bucket)
    check_positive("value", value)
    return ((value + bucket - 1) // bucket) * bucket


class ServingLayer(Workload):
    """One transformer layer shaped by a serving batch composition.

    Seven dependent kernels — the five attention kernels of Figure 2b
    followed by the two MLP GeMMs of Figure 2a — parameterized by the
    iteration's flattened token rows and attended KV depth.  The MLP
    always uses the GPT-3 two-GeMM + GeLU form (the serving story is
    about batch shapes, not gate variants).
    """

    def __init__(
        self,
        config: TransformerConfig = GPT3_145B,
        rows: int = 64,
        keys: int = 64,
        arch: ArchLike = TESLA_V100,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        gemm_configs: Optional[Mapping[str, GemmConfig]] = None,
        tuned: bool = False,
    ) -> None:
        super().__init__(arch=arch, cost_model=cost_model, functional=False)
        check_positive("rows", rows)
        check_positive("keys", keys)
        self.config = config
        self.rows = rows
        self.keys = keys
        self.seed = seed
        self.tuned = tuned
        if gemm_configs is None and tuned:
            from repro.tune.table import tuned_gemm_configs

            # Serving shapes vary per bucket, so the table keys per model
            # config (not per shape): one stage→config map applies to
            # every bucketed graph of this layer.
            gemm_configs = tuned_gemm_configs(self.workload_key, self.arch)
        self.gemm_configs = dict(gemm_configs) if gemm_configs else None

    @property
    def name(self) -> str:
        return f"{self.config.name} serving layer (rows={self.rows}, keys={self.keys})"

    @property
    def workload_key(self) -> str:
        """The tuned-config table key (shape-independent, unlike the
        graph name — tuned serving tiles apply to every bucket)."""
        return f"serving_{self.config.name}"

    @property
    def width(self) -> int:
        """Per-GPU width of Q, K and V: ``H / tensor_parallel``."""
        return self.config.attention_head_dim_per_gpu

    # ------------------------------------------------------------------
    def to_graph(self) -> PipelineGraph:
        hidden = self.config.hidden
        intermediate = self.config.mlp_intermediate_per_gpu
        width = self.width
        rows, keys = self.rows, self.keys

        def gemm(name: str, problem: GemmProblem, **kwargs) -> GemmKernel:
            tuned_config = (self.gemm_configs or {}).get(name)
            return GemmKernel(
                name,
                problem,
                config=tuned_config
                if tuned_config is not None
                else choose_gemm_config(problem, self.arch),
                cost_model=self.cost_model,
                **kwargs,
            )

        qkv = gemm(
            "srv_qkv", GemmProblem(m=rows, n=3 * width, k=hidden, a="X", b="WQKV", c="XQKV")
        )
        scores = gemm(
            "srv_scores",
            GemmProblem(m=rows, n=keys, k=width, a="XQ", b="Kall", c="P"),
            sync_inputs=("XQ", "Kall"),
        )
        softmax = SoftmaxDropoutKernel(
            "srv_softmax",
            SoftmaxDropoutProblem(
                rows=rows, row_length=keys, input="P", output="R",
                dropout_probability=0.0, seed=self.seed,
            ),
            sync_inputs=("P",),
            cost_model=self.cost_model,
        )
        values = gemm(
            "srv_values",
            GemmProblem(m=rows, n=width, k=keys, a="R", b="Vall", c="T"),
            sync_inputs=("R", "Vall"),
        )
        attn_out = gemm(
            "srv_attn_out",
            GemmProblem(m=rows, n=hidden, k=width, a="T", b="WO", c="XW12"),
            sync_inputs=("T",),
        )
        mlp1 = gemm(
            "srv_mlp1",
            GemmProblem(m=rows, n=intermediate, k=hidden, a="XW12", b="W1", c="XW1"),
            sync_inputs=("XW12",),
            epilogue=GeLU(),
        )
        mlp2 = gemm(
            "srv_mlp2",
            GemmProblem(m=rows, n=hidden, k=intermediate, a="XW1", b="W2", c="Y"),
            sync_inputs=("XW1",),
        )

        return PipelineGraph(
            stages=[
                StageSpec(name="srv_qkv", kernel=qkv, strided_groups=3),
                StageSpec(name="srv_scores", kernel=scores),
                StageSpec(name="srv_softmax", kernel=softmax),
                StageSpec(name="srv_values", kernel=values),
                StageSpec(name="srv_attn_out", kernel=attn_out),
                StageSpec(name="srv_mlp1", kernel=mlp1),
                StageSpec(name="srv_mlp2", kernel=mlp2),
            ],
            edges=[
                Edge("srv_qkv", "srv_scores", tensor="XQ", range_map=QuerySliceMap()),
                Edge(
                    "srv_qkv", "srv_scores", tensor="Kall",
                    range_map=KeySliceMap(rows=rows, offset=2 * width),
                ),
                Edge("srv_scores", "srv_softmax", tensor="P"),
                Edge("srv_softmax", "srv_values", tensor="R"),
                Edge(
                    "srv_qkv", "srv_values", tensor="Vall",
                    range_map=ValueSliceMap(rows=rows, offset=width),
                ),
                Edge("srv_values", "srv_attn_out", tensor="T"),
                Edge("srv_attn_out", "srv_mlp1", tensor="XW12"),
                Edge("srv_mlp1", "srv_mlp2", tensor="XW1"),
            ],
            name=f"serving_{self.config.name}_r{rows}_k{keys}",
        )


class ServingGraphCache:
    """Memoized serving-layer graphs keyed by bucketed batch shape.

    Bucketing trades a little padded work for a lot of shape reuse: a
    serving run whose batch compositions wander over hundreds of raw
    ``(rows, keys)`` pairs collapses onto a handful of graph objects, and
    because every graph carries a structural fingerprint, a
    :class:`~repro.pipeline.Session` replays repeated buckets from its
    sweep cache instead of re-simulating them.
    """

    def __init__(
        self,
        config: TransformerConfig = GPT3_145B,
        arch: ArchLike = TESLA_V100,
        row_bucket: int = 8,
        kv_bucket: int = 64,
        tuned: bool = False,
    ) -> None:
        check_positive("row_bucket", row_bucket)
        check_positive("kv_bucket", kv_bucket)
        self.config = config
        self.arch = arch
        self.row_bucket = row_bucket
        self.kv_bucket = kv_bucket
        self.tuned = tuned
        self._graphs: Dict[Tuple[int, int], PipelineGraph] = {}
        #: How many ``graph_for`` calls built a fresh graph vs reused one.
        self.builds = 0
        self.reuses = 0

    def bucket_of(self, rows: int, keys: int) -> Tuple[int, int]:
        """The bucketed ``(rows, keys)`` shape a raw composition lands in."""
        return (bucketed(rows, self.row_bucket), bucketed(keys, self.kv_bucket))

    def graph_for(self, rows: int, keys: int) -> PipelineGraph:
        """The memoized graph for the bucketed shape of ``(rows, keys)``."""
        key = self.bucket_of(rows, keys)
        graph = self._graphs.get(key)
        if graph is None:
            self.builds += 1
            graph = ServingLayer(
                config=self.config, rows=key[0], keys=key[1], arch=self.arch,
                tuned=self.tuned,
            ).to_graph()
            self._graphs[key] = graph
        else:
            self.reuses += 1
        return graph

    @property
    def distinct_shapes(self) -> int:
        return len(self._graphs)
