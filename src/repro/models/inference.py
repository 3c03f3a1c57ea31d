"""End-to-end inference estimates (Figure 8).

The paper integrates the cuSync-synchronized kernels into the full models
and reports the reduction in end-to-end inference time.  A full forward
pass is a repetition of identical blocks (96 transformer layers for GPT-3,
80 for LLaMA, the Table II stages for ResNet/VGG) plus per-layer collective
communication for the model-parallel transformers.  This module therefore
simulates one instance of each distinct block and composes the end-to-end
time analytically:

``total = sum over blocks (simulated block time * block count) + collectives``

Communication time is identical for StreamSync and cuSync (cuSync does not
change the collectives), so it dilutes the relative improvement — exactly
the effect that makes Figure 8's end-to-end percentages smaller than the
per-block percentages of Figures 6 and 7.

The simulated blocks are the same points Figures 6 and 7 time, so
``estimate(session=...)`` times them through a given
:class:`~repro.pipeline.Session` (on its cost model) and replays a block
that session already simulated; :func:`repro.bench.figure8_end_to_end`
passes the experiments' shared session.  Without one, each block is timed
on a fresh default session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.gpu.arch import ArchLike, TESLA_V100, resolve_arch
from repro.models.attention import Attention
from repro.models.config import (
    GPT3_145B,
    TransformerConfig,
    VisionModelConfig,
)
from repro.models.conv_layers import ConvChain
from repro.models.llama_mlp import LlamaMlp
from repro.models.mlp import GptMlp
from repro.models.workload import Workload
from repro.pipeline.session import Session

#: Bytes per fp16 element, used for all-reduce volume estimates.
FP16_BYTES = 2


@dataclass
class InferenceEstimate:
    """End-to-end inference time under each execution scheme."""

    model: str
    streamsync_us: float
    cusync_us: float
    #: Time spent in collectives / non-overlappable glue, common to both.
    common_us: float = 0.0
    per_block_us: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def improvement(self) -> float:
        """Fractional reduction in inference time (0.1 == 10%)."""
        if self.streamsync_us <= 0:
            return 0.0
        return (self.streamsync_us - self.cusync_us) / self.streamsync_us


def _block_times(
    workload: Workload, policies: List[str], session: Optional[Session]
) -> Dict[str, float]:
    """StreamSync time plus the best cuSync time over ``policies``, as the paper reports."""
    times = workload.best_policy(policies, session)
    streamsync = times.pop("StreamSync")
    return {"StreamSync": streamsync, "cuSync": min(times.values())}


class TransformerLayer:
    """One transformer layer: an Attention block plus an MLP block."""

    def __init__(
        self,
        config: TransformerConfig = GPT3_145B,
        batch: int = 1,
        seq: int = 512,
        cached: int = 0,
        arch: ArchLike = TESLA_V100,
        tuned: bool = False,
    ) -> None:
        self.config = config
        self.batch = batch
        self.seq = seq
        self.cached = cached
        self.arch = resolve_arch(arch)
        #: Resolve MLP tile configs from the committed tuned-config table
        #: (per-arch) instead of the V100-tuned defaults.
        self.tuned = tuned

    # ------------------------------------------------------------------
    def attention(self) -> Attention:
        return Attention(
            config=self.config,
            batch=self.batch,
            seq=self.seq,
            cached=self.cached,
            arch=self.arch,
        )

    def mlp(self) -> Workload:
        batch_seq = self.batch * self.seq
        if self.config.swiglu:
            return LlamaMlp(
                config=self.config, batch_seq=batch_seq, arch=self.arch, tuned=self.tuned
            )
        return GptMlp(config=self.config, batch_seq=batch_seq, arch=self.arch, tuned=self.tuned)

    def allreduce_time_us(self) -> float:
        """Per-layer all-reduce cost of Megatron-style model parallelism.

        Each layer performs two all-reduces over the ``[B*S, H]``
        activations (one after attention, one after the MLP).  A ring
        all-reduce moves ``2 * (p-1)/p`` times the buffer over NVLink.
        """
        nvlink = self.arch.extras.get("nvlink_bandwidth_bytes_us", 150_000.0)
        tokens = self.batch * self.seq
        buffer_bytes = tokens * self.config.hidden * FP16_BYTES
        parallel = self.config.tensor_parallel
        traffic = 2.0 * (parallel - 1) / parallel * buffer_bytes
        latency = 10.0  # per-collective launch/latency floor in µs
        return 2.0 * (traffic / nvlink + latency)

    # ------------------------------------------------------------------
    def estimate(
        self,
        policies: Optional[List[str]] = None,
        attention_policies: Optional[List[str]] = None,
        session: Optional[Session] = None,
    ) -> InferenceEstimate:
        """Full-model inference estimate for this layer's configuration.

        Block times go through ``session`` (see :meth:`Workload.best_policy`):
        points it already timed replay from its sweep cache.
        """
        policies = policies if policies is not None else ["TileSync", "RowSync"]
        attention_policies = (
            attention_policies
            if attention_policies is not None
            else policies + ["StridedTileSync"]
        )
        attention_times = _block_times(self.attention(), attention_policies, session)
        mlp_times = _block_times(self.mlp(), policies, session)

        layers = self.config.layers
        common = self.allreduce_time_us() * layers
        streamsync = (attention_times["StreamSync"] + mlp_times["StreamSync"]) * layers + common
        cusync = (attention_times["cuSync"] + mlp_times["cuSync"]) * layers + common
        return InferenceEstimate(
            model=self.config.name,
            streamsync_us=streamsync,
            cusync_us=cusync,
            common_us=common,
            per_block_us={"attention": attention_times, "mlp": mlp_times},
        )


class VisionModel:
    """A full vision model (ResNet-38 or VGG-19) built from Table II stages."""

    def __init__(
        self,
        config: VisionModelConfig,
        batch: int = 1,
        arch: ArchLike = TESLA_V100,
    ) -> None:
        self.config = config
        self.batch = batch
        self.arch = resolve_arch(arch)

    def stage_chain(self, stage_index: int) -> ConvChain:
        return ConvChain(spec=self.config.stages[stage_index], batch=self.batch, arch=self.arch)

    def estimate(
        self, policies: Optional[List[str]] = None, session: Optional[Session] = None
    ) -> InferenceEstimate:
        """Full-network inference estimate for this batch size (block times
        through ``session`` as in :meth:`TransformerLayer.estimate`)."""
        policies = policies if policies is not None else ["RowSync", "Conv2DTileSync"]
        streamsync = 0.0
        cusync = 0.0
        per_block: Dict[str, Dict[str, float]] = {}
        for index, spec in enumerate(self.config.stages):
            times = _block_times(self.stage_chain(index), policies, session)
            streamsync += times["StreamSync"] * spec.layers
            cusync += times["cuSync"] * spec.layers
            per_block[f"stage{index}_c{spec.channels}"] = times
        return InferenceEstimate(
            model=self.config.name,
            streamsync_us=streamsync,
            cusync_us=cusync,
            per_block_us=per_block,
        )
