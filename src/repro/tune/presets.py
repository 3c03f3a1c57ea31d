"""Ready-made search spaces for the repo's tunable workloads.

Both MLP spaces search the same family of tile grids the paper's
Table IV draws from: producer/consumer tile shapes ``(tile_m, tile_n)``
in {128, 256}² with a small split-K ladder per stage, plus the
``default`` tile (the workload's V100-tuned grids) as the anchor the
winner must beat.  21 tile choices × policies × arches.

``gpt3_mlp_space`` graphs are fully picklable (both sweep modes work
and results persist to the store); ``llama_mlp_space`` graphs carry the
SwiGLU closure range map, so they sweep in serial mode with in-memory
caching only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.gpu.arch import ArchLike
from repro.kernels.gemm import GemmConfig
from repro.models.config import GPT3_145B, LLAMA_65B, TransformerConfig
from repro.pipeline.graph import PipelineGraph
from repro.pipeline.session import SweepPolicy
from repro.tune.space import DEFAULT_TILE, SearchSpace, TileChoice

#: Producer/consumer tile shapes shared by both MLP grids.
_TILE_SHAPES: Tuple[Tuple[int, int], ...] = (
    (128, 128),
    (128, 256),
    (256, 128),
    (256, 256),
)

#: ``(producer split_k, consumer split_k)`` ladder.
_SPLIT_LADDER: Tuple[Tuple[int, int], ...] = (
    (1, 1),
    (2, 1),
    (2, 2),
    (3, 2),
    (4, 2),
)


def mlp_tile_grid(stage1: str, stage2: str) -> Tuple[TileChoice, ...]:
    """The default + 20 candidate tile choices for a two-GeMM MLP."""
    choices: List[TileChoice] = [DEFAULT_TILE]
    for tile_m, tile_n in _TILE_SHAPES:
        for split1, split2 in _SPLIT_LADDER:
            label = f"{tile_m}x{tile_n}/k{split1}.{split2}"
            choices.append(
                TileChoice.of(
                    label,
                    {
                        stage1: GemmConfig(tile_m=tile_m, tile_n=tile_n, tile_k=32, split_k=split1),
                        stage2: GemmConfig(tile_m=tile_m, tile_n=tile_n, tile_k=32, split_k=split2),
                    },
                )
            )
    return tuple(choices)


def gpt3_mlp_space(
    batch_seq: int = 512,
    config: TransformerConfig = GPT3_145B,
    arches: Sequence[ArchLike] = ("A100", "H100-SXM", "RTX-4090"),
    policies: Sequence[SweepPolicy] = ("TileSync", "RowSync"),
    tile_choices: Optional[Sequence[TileChoice]] = None,
) -> SearchSpace:
    """The GPT-3 MLP's ``(tile, policy, arch)`` space.

    The default tile resolves to the paper's V100 Table-IV grids (via
    :func:`~repro.models.mlp.gpt3_mlp_gemm_configs`), so the search's
    ``default_best_us`` is exactly the number the untuned model posts.
    """
    from repro.models.mlp import GptMlp

    def builder(configs: Optional[Dict[str, GemmConfig]]) -> PipelineGraph:
        gemm_configs = None
        if configs is not None:
            gemm_configs = (configs["mlp_gemm1"], configs["mlp_gemm2"])
        return GptMlp(
            config=config, batch_seq=batch_seq, gemm_configs=gemm_configs
        ).to_graph()

    return SearchSpace(
        name=f"mlp_{config.name}_b{batch_seq}",
        builder=builder,
        tile_choices=tile_choices
        if tile_choices is not None
        else mlp_tile_grid("mlp_gemm1", "mlp_gemm2"),
        policies=policies,
        arches=arches,
    )


def llama_mlp_space(
    batch_seq: int = 512,
    config: TransformerConfig = LLAMA_65B,
    arches: Sequence[ArchLike] = ("A100", "H100-SXM", "RTX-4090"),
    policies: Sequence[SweepPolicy] = ("TileSync", "RowSync", "StridedTileSync"),
    tile_choices: Optional[Sequence[TileChoice]] = None,
) -> SearchSpace:
    """The LLaMA MLP's ``(tile, policy, arch)`` space.

    The default tile is :func:`~repro.kernels.gemm.choose_gemm_config`'s
    V100 heuristic choice — the graphs the untuned model builds.  The
    SwiGLU closure keeps these graphs out of ``mode="process"`` sweeps
    and the persistent store; use serial mode.
    """
    from repro.models.llama_mlp import LlamaMlp

    def builder(configs: Optional[Dict[str, GemmConfig]]) -> PipelineGraph:
        gemm_configs = None
        if configs is not None:
            gemm_configs = (configs["llama_gemm1"], configs["llama_gemm2"])
        return LlamaMlp(
            config=config, batch_seq=batch_seq, gemm_configs=gemm_configs
        ).to_graph()

    return SearchSpace(
        name=f"llama_mlp_{config.name}_b{batch_seq}",
        builder=builder,
        tile_choices=tile_choices
        if tile_choices is not None
        else mlp_tile_grid("llama_gemm1", "llama_gemm2"),
        policies=policies,
        arches=arches,
    )
