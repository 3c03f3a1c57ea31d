"""Experiment definitions: one function per table / figure of the paper.

Every function returns a list of dictionaries (one per row of the paper's
table or bar of the figure) so tests can assert the qualitative shape and
the benchmark scripts can print them; nothing here writes files or plots.

All experiments run on the declarative :mod:`repro.pipeline` API: each
workload's graph is built **once** and re-run under every scheme, policy
family and optimization setting — the kernels are bound per execution,
never rebuilt, which is what makes multi-point comparisons cheap.
"""

from __future__ import annotations

import inspect
import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gpu.arch import GpuArchitecture, TESLA_V100
from repro.gpu.costmodel import CostModel
from repro.gpu.occupancy import OccupancyCalculator
from repro.gpu.trace import analytic_utilization, wave_count
from repro.kernels import conv2d as conv2d_module
from repro.kernels import elementwise as elementwise_module
from repro.kernels import gemm as gemm_module
from repro.kernels import softmax_dropout as softmax_module
from repro.kernels.elementwise import CopyKernel, CopyProblem
from repro.cusync import OptimizationFlags, PolicyAssignment, TileSync
from repro.cusync.optimizations import decorate_policy_name
from repro.pipeline import Edge, PipelineGraph, Session, StageSpec, SweepPoint, sweep_policies
from repro.models.attention import Attention
from repro.models.config import GPT3_145B, LLAMA_65B, RESNET38_LAYERS, VGG19_LAYERS, resnet38_config, vgg19_config
from repro.models.conv_layers import ConvChain
from repro.models.inference import TransformerLayer, VisionModel
from repro.models.llama_mlp import LlamaMlp
from repro.models.mlp import GptMlp
from repro.models.workload import Workload

#: Policy families evaluated for the LLM workloads (Figure 6 legend).
LLM_POLICIES = ("RowSync", "TileSync", "StridedTileSync")
#: Policy families evaluated for the Conv2D workloads (Figure 7 legend).
CONV_POLICIES = ("RowSync", "Conv2DTileSync")


# ----------------------------------------------------------------------
# Table I — thread blocks, waves and utilization of GPT-3's MLP GeMMs
# ----------------------------------------------------------------------
def table1_utilization(
    batch_sizes: Sequence[int] = (256, 512, 1024),
    arch: GpuArchitecture = TESLA_V100,
) -> List[Dict[str, object]]:
    """Reproduce Table I: grid, blocks/wave, waves and utilization."""
    rows: List[Dict[str, object]] = []
    for batch in batch_sizes:
        workload = GptMlp(batch_seq=batch, arch=arch)
        graph = workload.to_graph()
        for role, stage in zip(("Producer", "Consumer"), graph.topological_order):
            kernel = stage.kernel
            occupancy = kernel.occupancy()
            blocks = kernel.grid.volume
            rows.append(
                {
                    "batch": batch,
                    "gemm": role,
                    "grid": str(kernel.grid),
                    "thread_blocks": blocks,
                    "blocks_per_wave": arch.blocks_per_wave(occupancy),
                    "occupancy": occupancy,
                    "waves": round(wave_count(blocks, occupancy, arch), 2),
                    "utilization": analytic_utilization(blocks, occupancy, arch),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Table III — lines changed to adopt cuSync
# ----------------------------------------------------------------------
def table3_lines_changed() -> List[Dict[str, object]]:
    """Reproduce Table III: integration effort per kernel.

    The paper counts source lines added/changed in each CUDA kernel to call
    into cuSync.  The reproduction measures the same quantity on its own
    kernels: lines mentioning the ``self.sync`` interface over total source
    lines of the kernel module.
    """
    modules = {
        "GeMM": gemm_module,
        "Softmax-Dropout": softmax_module,
        "Conv2D": conv2d_module,
        "Copy": elementwise_module,
    }
    rows = []
    for name, module in modules.items():
        source = inspect.getsource(module)
        lines = source.splitlines()
        changed = [line for line in lines if "self.sync." in line]
        rows.append(
            {
                "kernel": name,
                "total_lines": len(lines),
                "lines_changed": len(changed),
                "fraction": len(changed) / len(lines),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table IV — StreamSync vs cuSync for GPT-3's MLP
# ----------------------------------------------------------------------
def table4_mlp(
    batch_sizes: Sequence[int] = (64, 128, 256, 512, 1024, 2048),
    arch: GpuArchitecture = TESLA_V100,
    policies: Sequence[str] = ("TileSync", "RowSync"),
) -> List[Dict[str, object]]:
    """Reproduce Table IV: grids, waves, times and the best policy."""
    session = Session(arch=arch)
    rows: List[Dict[str, object]] = []
    for batch in batch_sizes:
        workload = GptMlp(batch_seq=batch, arch=arch)
        graph = workload.to_graph()
        first, second = graph.kernels
        streamsync = session.run(graph, scheme="streamsync").total_time_us
        policy_times = {
            name: session.run(graph, scheme="cusync", policy=name).total_time_us
            for name in policies
        }
        best_policy = min(policy_times, key=policy_times.get)
        best_time = policy_times[best_policy]

        waves1 = wave_count(first.grid.volume, first.occupancy(), arch)
        waves2 = wave_count(second.grid.volume, second.occupancy(), arch)
        rows.append(
            {
                "batch": batch,
                "grid_first": str(first.grid),
                "waves_first": round(waves1, 2),
                "grid_second": str(second.grid),
                "waves_second": round(waves2, 2),
                "streamsync_waves": math.ceil(waves1) + math.ceil(waves2),
                "streamsync_us": streamsync,
                "cusync_waves": round(waves1 + waves2, 2),
                "best_policy": best_policy,
                "cusync_us": best_time,
                "reduction": (streamsync - best_time) / streamsync,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table V — impact of the W/R/T optimizations
# ----------------------------------------------------------------------
_OPTIMIZATION_LADDER: Tuple[Tuple[str, OptimizationFlags], ...] = (
    ("Vanilla", OptimizationFlags.none()),
    ("+R", OptimizationFlags.r()),
    ("+WR", OptimizationFlags.wr()),
    ("+WRT", OptimizationFlags.wrt()),
)


def _optimization_ladder(workload: Workload, policy: str) -> Dict[str, float]:
    session = Session(arch=workload.arch, cost_model=workload.cost_model)
    graph = workload.to_graph()
    return {
        label: session.run(
            graph, scheme="cusync", policy=policy, optimizations=flags
        ).total_time_us
        for label, flags in _OPTIMIZATION_LADDER
    }


def table5_mlp_optimizations(
    batch_seq: int = 64, arch: GpuArchitecture = TESLA_V100
) -> List[Dict[str, object]]:
    """Reproduce Table V(a): TileSync + optimizations for GPT-3's MLP."""
    workload = GptMlp(batch_seq=batch_seq, arch=arch)
    ladder = _optimization_ladder(workload, "TileSync")
    return [{"batch": batch_seq, "policy": "TileSync", **ladder}]


def table5_conv_optimizations(
    channels: Sequence[int] = (64, 128, 256, 512),
    batches: Sequence[int] = (1,),
    arch: GpuArchitecture = TESLA_V100,
) -> List[Dict[str, object]]:
    """Reproduce Table V(b): Conv2DTileSync + optimizations for ResNet."""
    rows = []
    by_channels = {spec.channels: spec for spec in RESNET38_LAYERS}
    for channel in channels:
        for batch in batches:
            workload = ConvChain(by_channels[channel], batch=batch, arch=arch)
            ladder = _optimization_ladder(workload, "Conv2DTileSync")
            rows.append({"channels": channel, "batch": batch, "policy": "Conv2DTileSync", **ladder})
    return rows


# ----------------------------------------------------------------------
# Figure 6 — MLP and Attention improvements for GPT-3 and LLaMA
# ----------------------------------------------------------------------
def _improvements(workload: Workload, policies: Sequence[str], include_streamk: bool) -> Dict[str, float]:
    session = Session(arch=workload.arch, cost_model=workload.cost_model)
    graph = workload.to_graph()
    baseline = session.run(graph, scheme="streamsync").total_time_us
    result: Dict[str, float] = {"streamsync_us": baseline}
    for family in policies:
        time_us = session.run(graph, scheme="cusync", policy=family).total_time_us
        result[family] = (baseline - time_us) / baseline
    if include_streamk:
        streamk = session.run(graph, scheme="streamk").total_time_us
        result["StreamK"] = (baseline - streamk) / baseline
    result["best"] = max(result[family] for family in policies)
    return result


def figure6_llm(
    model: str = "gpt3",
    block: str = "mlp",
    prompt_sizes: Sequence[int] = (256, 512, 1024, 2048),
    token_configs: Sequence[Tuple[int, int]] = ((1, 512), (2, 1024), (4, 2048)),
    arch: GpuArchitecture = TESLA_V100,
    include_streamk: bool = True,
) -> List[Dict[str, object]]:
    """Reproduce Figure 6: improvement over StreamSync per size and policy.

    ``model`` is ``"gpt3"`` or ``"llama"``; ``block`` is ``"mlp"`` or
    ``"attention"``.  Prompt-processing rows use ``B*S = size, S' = 0``;
    token-generation rows (attention only) use ``(B, S')`` pairs with S = 1.
    """
    config = GPT3_145B if model.lower() == "gpt3" else LLAMA_65B
    rows: List[Dict[str, object]] = []
    if block.lower() == "mlp":
        policies = ("TileSync", "RowSync")
        for size in prompt_sizes:
            if config.swiglu:
                workload: Workload = LlamaMlp(config=config, batch_seq=size, arch=arch)
            else:
                workload = GptMlp(config=config, batch_seq=size, arch=arch)
            data = _improvements(workload, policies, include_streamk)
            rows.append({"model": config.name, "block": "MLP", "batch_seq": size, "cached": 0, **data})
        return rows

    policies = LLM_POLICIES
    for size in prompt_sizes:
        workload = Attention(config=config, batch=1, seq=size, cached=0, arch=arch)
        data = _improvements(workload, policies, include_streamk)
        rows.append({"model": config.name, "block": "Attention", "batch_seq": size, "cached": 0, **data})
    for batch, cached in token_configs:
        workload = Attention(config=config, batch=batch, seq=1, cached=cached, arch=arch)
        data = _improvements(workload, policies, include_streamk)
        rows.append(
            {"model": config.name, "block": "Attention", "batch_seq": batch, "cached": cached, **data}
        )
    return rows


# ----------------------------------------------------------------------
# Figure 7 — Conv2D improvements for ResNet-38 and VGG-19
# ----------------------------------------------------------------------
def figure7_conv(
    model: str = "resnet",
    channels: Sequence[int] = (64, 128, 256, 512),
    batches: Sequence[int] = (1, 4, 8, 16, 32),
    arch: GpuArchitecture = TESLA_V100,
) -> List[Dict[str, object]]:
    """Reproduce Figure 7: Conv2D-chain improvement per channel count and batch."""
    layer_table = RESNET38_LAYERS if model.lower() == "resnet" else VGG19_LAYERS
    by_channels = {spec.channels: spec for spec in layer_table}
    rows: List[Dict[str, object]] = []
    for channel in channels:
        spec = by_channels[channel]
        for batch in batches:
            workload = ConvChain(spec, batch=batch, arch=arch)
            data = _improvements(workload, CONV_POLICIES, include_streamk=False)
            rows.append(
                {
                    "model": model,
                    "channels": channel,
                    "batch": batch,
                    "convs": spec.convs_per_layer,
                    **data,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 8 — end-to-end inference reductions
# ----------------------------------------------------------------------
def figure8_end_to_end(
    llm_configs: Sequence[Tuple[int, int, int]] = ((1, 512, 0), (1, 1024, 0), (1, 512, 512)),
    vision_batches: Sequence[int] = (1, 8),
    arch: GpuArchitecture = TESLA_V100,
    include_llama: bool = True,
    include_vision: bool = True,
) -> List[Dict[str, object]]:
    """Reproduce Figure 8: end-to-end inference-time reduction per model.

    ``llm_configs`` lists ``(batch, seq, cached)`` triples; vision models run
    over ``vision_batches``.
    """
    rows: List[Dict[str, object]] = []
    llm_models = [GPT3_145B] + ([LLAMA_65B] if include_llama else [])
    for config in llm_models:
        for batch, seq, cached in llm_configs:
            layer = TransformerLayer(config=config, batch=batch, seq=seq, cached=cached, arch=arch)
            estimate = layer.estimate()
            rows.append(
                {
                    "model": config.name,
                    "batch": batch,
                    "seq": seq,
                    "cached": cached,
                    "streamsync_us": estimate.streamsync_us,
                    "cusync_us": estimate.cusync_us,
                    "reduction": estimate.improvement,
                }
            )
    if include_vision:
        for vision_config in (resnet38_config(), vgg19_config()):
            for batch in vision_batches:
                model = VisionModel(config=vision_config, batch=batch, arch=arch)
                estimate = model.estimate()
                rows.append(
                    {
                        "model": vision_config.name,
                        "batch": batch,
                        "seq": None,
                        "cached": None,
                        "streamsync_us": estimate.streamsync_us,
                        "cusync_us": estimate.cusync_us,
                        "reduction": estimate.improvement,
                    }
                )
    return rows


# ----------------------------------------------------------------------
# The five evaluation workloads, shared by the cross-cutting experiments
# ----------------------------------------------------------------------
def _model_workloads(
    batch_seq: int,
    seq: int,
    conv_batch: int,
    conv_channels: int,
    arch: Optional[GpuArchitecture] = None,
) -> List[Tuple[Workload, Tuple[str, ...]]]:
    """The five model workloads paired with their policy families.

    Shared by :func:`policy_ablation` and :func:`arch_comparison` so the
    two experiments stay comparable workload for workload.  ``arch=None``
    leaves each workload on its default (V100-tuned) configuration, which
    is what the arch axis reuses across architectures.
    """
    resnet_spec = {spec.channels: spec for spec in RESNET38_LAYERS}[conv_channels]
    vgg_spec = {spec.channels: spec for spec in VGG19_LAYERS}[conv_channels]
    kwargs = {} if arch is None else {"arch": arch}
    return [
        (GptMlp(config=GPT3_145B, batch_seq=batch_seq, **kwargs), ("TileSync", "RowSync")),
        (
            LlamaMlp(config=LLAMA_65B, batch_seq=batch_seq, **kwargs),
            ("TileSync", "RowSync", "StridedTileSync"),
        ),
        (Attention(config=GPT3_145B, batch=1, seq=seq, cached=0, **kwargs), LLM_POLICIES),
        (ConvChain(resnet_spec, batch=conv_batch, **kwargs), CONV_POLICIES),
        (ConvChain(vgg_spec, batch=conv_batch, **kwargs), CONV_POLICIES),
    ]


# ----------------------------------------------------------------------
# Policy-space ablation — uniform families vs mixed per-edge assignments
# ----------------------------------------------------------------------
def policy_ablation(
    arch: GpuArchitecture = TESLA_V100,
    batch_seq: int = 512,
    seq: int = 512,
    conv_batch: int = 1,
    conv_channels: int = 256,
) -> List[Dict[str, object]]:
    """Compare synchronization policies — including mixed per-edge
    assignments — across the five model workloads.

    This experiment exercises the first-class policy API end to end: every
    workload's graph is built once, uniform family points come from
    :func:`repro.pipeline.sweep_policies`, mixed points are hand-written
    :class:`~repro.cusync.PolicyAssignment` grids (e.g. the attention
    QKV → scores edge under ``StridedTileSync`` while its sibling
    softmax → values edge uses ``RowSync``), and the whole multi-graph
    batch is evaluated by **one** serial ``Session.sweep`` call (the
    LLaMA graph carries a closure range map, which keeps it off the
    process pool).

    Returns one row per (workload, policy) with the improvement over that
    workload's StreamSync baseline.
    """
    workloads = _model_workloads(batch_seq, seq, conv_batch, conv_channels, arch=arch)

    def mixed_assignment(graph: PipelineGraph) -> Optional[PolicyAssignment]:
        """A representative per-edge mix for each workload family."""
        name = graph.name or ""
        edges = [(edge.producer, edge.consumer, edge.tensor) for edge in graph.edges]
        if not edges:
            return None
        if name.startswith("attn"):
            return PolicyAssignment(
                default="TileSync",
                edges={
                    ("attn_qkv", "attn_scores"): "StridedTileSync",
                    ("attn_softmax", "attn_values", "R"): "RowSync",
                },
            )
        if name.startswith("llama_mlp"):
            return PolicyAssignment(default="RowSync", edges={edges[0]: "StridedTileSync"})
        if name.startswith("conv_chain"):
            return PolicyAssignment(
                default="Conv2DTileSync", edges={edges[len(edges) // 2]: "RowSync"}
            )
        return PolicyAssignment(default="TileSync", edges={edges[0]: "RowSync"})

    session = Session(arch=arch)
    work: List[Tuple[PipelineGraph, SweepPoint]] = []
    for workload, families in workloads:
        graph = workload.to_graph()
        work.append((graph, SweepPoint(scheme="streamsync", policy=None, arch=arch)))
        work.extend(sweep_policies(graph, families, arches=(arch,)))
        mixed = mixed_assignment(graph)
        if mixed is not None:
            work.append((graph, SweepPoint(scheme="cusync", policy=mixed, arch=arch)))

    results = session.sweep(work, mode="serial")
    baselines = {
        result.graph_label: result.total_time_us
        for result in results
        if result.scheme == "streamsync"
    }
    rows: List[Dict[str, object]] = []
    for result in results:
        baseline = baselines[result.graph_label]
        label = result.policy_label if result.scheme == "cusync" else result.scheme
        mixed_point = isinstance(result.policy, PolicyAssignment) and bool(result.policy.edges)
        rows.append(
            {
                "workload": result.graph_label,
                "policy": label,
                "mixed": mixed_point,
                "total_time_us": result.total_time_us,
                "wait_time_us": result.total_wait_time_us,
                "improvement": (baseline - result.total_time_us) / baseline,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Cross-architecture comparison — the Figure 6/7/8 story per architecture
# ----------------------------------------------------------------------
def arch_comparison(
    arches: Sequence = ("V100", "A100", "H100-SXM", "RTX-4090"),
    batch_seq: int = 512,
    seq: int = 512,
    conv_batch: int = 1,
    conv_channels: int = 256,
    include_end_to_end: bool = True,
    cache_stats: Optional[Dict[str, object]] = None,
    tuned: bool = False,
) -> List[Dict[str, object]]:
    """Reproduce the paper's speedup story per GPU architecture.

    The paper evaluates on one V100 and notes the scheme carries to
    Ampere; this experiment asks the quantitative question across the
    registered architecture axis: for each of the five model workloads
    (the Figure 6 MLP/attention blocks, the Figure 7 conv chains) and each
    architecture, how much of the StreamSync time does the best cuSync
    policy recover?  Each workload's graph is built **once** and re-run
    under every ``(arch, scheme, policy)`` point — kernels are re-bound
    per run, never rebuilt — via one serial multi-graph ``Session.sweep``
    (the LLaMA graph carries a closure range map, which keeps it off the
    process pool).  ``arches`` accepts registered names,
    :class:`~repro.gpu.arch.ArchSpec` values (including
    ``ArchSpec(...).scaled(...)`` what-ifs) and raw instances.

    With ``include_end_to_end=True`` a Figure 8-style end-to-end row per
    architecture (GPT-3 transformer-layer inference estimate) is appended.

    Returns one row per (workload, arch, policy) with the improvement over
    that workload's StreamSync baseline *on the same architecture*, plus a
    ``best`` flag marking each (workload, arch)'s winning policy.

    ``cache_stats``, when given a dict, measures the session's sweep-result
    cache on this grid: after the fresh sweep, the *same* work list is
    swept again — every point replays from cache — and the dict is filled
    with ``replay_s`` (wall time of the cached re-sweep), ``hits`` /
    ``misses`` / ``hit_rate`` and ``replay_identical`` (whether the
    replayed results matched the fresh ones bit for bit, ignoring the
    ``cached`` flag).  This is the regeneration scenario (re-deriving
    figure variants from one grid) that the cache exists for.

    ``tuned=True`` resolves the MLP workloads' tile configurations from
    the committed tuned-config table (``TUNED_CONFIGS.json``) **per
    architecture** instead of reusing the V100-tuned grids everywhere:
    each MLP gets one graph per arch (built with that arch's tuned tiles,
    swept only on that arch, StreamSync baseline included so improvements
    stay same-graph-same-arch), while the remaining workloads keep one
    shared graph across the arch axis.  Row keys are unchanged — the
    per-arch graphs report under the workload's base name — so tuned and
    untuned records are row-for-row comparable.
    """
    from repro.gpu.arch import resolve_arch
    from repro.pipeline import sweep_archs

    workloads = _model_workloads(batch_seq, seq, conv_batch, conv_channels)
    session = Session()
    work: List[Tuple[PipelineGraph, SweepPoint]] = []
    for workload, families in workloads:
        graph = workload.to_graph()
        if tuned and isinstance(workload, (GptMlp, LlamaMlp)):
            # One graph per arch, carrying that arch's tuned tiles; the
            # deterministic `@<arch>` rename keeps multi-graph sweep
            # labels unique (rows strip it below).
            for arch in arches:
                resolved = resolve_arch(arch)
                twin = type(workload)(
                    config=workload.config,
                    batch_seq=workload.batch_seq,
                    arch=resolved,
                    tuned=True,
                ).to_graph()
                twin = twin.renamed(f"{graph.name}@{resolved.name}")
                work.extend(
                    sweep_archs(
                        twin, (arch,), policies=families, schemes=("streamsync", "cusync")
                    )
                )
        else:
            work.extend(
                sweep_archs(graph, arches, policies=families, schemes=("streamsync", "cusync"))
            )
    results = session.sweep(work, mode="serial")

    if cache_stats is not None:
        replay_start = time.perf_counter()
        replayed = session.sweep(work, mode="serial")
        replay_s = time.perf_counter() - replay_start
        hits, misses = session.sweep_cache_hits, session.sweep_cache_misses
        cache_stats.update(
            replay_s=replay_s,
            hits=hits,
            misses=misses,
            hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            # SweepResult equality already ignores the ``cached`` flag.
            replay_identical=replayed == results,
        )

    baselines: Dict[Tuple[str, str], float] = {
        (result.graph_label, result.arch_name): result.total_time_us
        for result in results
        if result.scheme == "streamsync"
    }
    rows: List[Dict[str, object]] = []
    for result in results:
        baseline = baselines[(result.graph_label, result.arch_name)]
        label = result.policy_label if result.scheme == "cusync" else result.scheme
        rows.append(
            {
                # Per-arch tuned graphs are labelled `<name>@<arch>`; rows
                # report under the base workload name so tuned and untuned
                # records share row keys.
                "workload": result.graph_label.split("@", 1)[0],
                "arch": result.arch_name,
                "policy": label,
                "total_time_us": result.total_time_us,
                "wait_time_us": result.total_wait_time_us,
                "improvement": (baseline - result.total_time_us) / baseline,
                "best": False,
            }
        )
    # Flag the winning cusync policy per (workload, arch).
    by_group: Dict[Tuple[str, str], List[Dict[str, object]]] = {}
    for row in rows:
        if row["policy"] != "streamsync":
            by_group.setdefault((row["workload"], row["arch"]), []).append(row)
    for group in by_group.values():
        max(group, key=lambda row: row["improvement"])["best"] = True

    if include_end_to_end:
        for arch in arches:
            resolved = resolve_arch(arch)
            layer = TransformerLayer(
                config=GPT3_145B, batch=1, seq=seq, cached=0, arch=resolved,
                tuned=tuned,
            )
            estimate = layer.estimate()
            rows.append(
                {
                    "workload": "end_to_end_gpt3_layer",
                    "arch": resolved.name,
                    "policy": "best",
                    "total_time_us": estimate.cusync_us,
                    "wait_time_us": 0.0,
                    "improvement": estimate.improvement,
                    "best": True,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Section V-D — maximum synchronization overhead
# ----------------------------------------------------------------------
def overhead_experiment(
    arch: GpuArchitecture = TESLA_V100,
    blocks: Optional[int] = None,
) -> Dict[str, float]:
    """Reproduce the worst-case overhead study (Section V-D).

    Two copy kernels, one full wave of maximum-occupancy thread blocks,
    consumer block *i* depends on producer block *i*.  The paper measures
    2–3% overhead of cuSync over StreamSync.
    """
    cost_model = CostModel(arch=arch)
    copy_problem = CopyProblem.for_block_count(1, source="input", destination="mid")
    occupancy = CopyKernel("probe", copy_problem, cost_model=cost_model).occupancy()
    if blocks is None:
        blocks = arch.blocks_per_wave(occupancy)

    producer_problem = CopyProblem.for_block_count(blocks, source="input", destination="mid")
    consumer_problem = CopyProblem.for_block_count(blocks, source="mid", destination="output")
    producer = CopyKernel("copy_producer", producer_problem, cost_model=cost_model)
    consumer = CopyKernel(
        "copy_consumer", consumer_problem, sync_inputs=("mid",), cost_model=cost_model
    )
    # One graph, both schemes: the per-stage overrides pin the policy and
    # the +WRT flags regardless of the run-time family.
    graph = PipelineGraph(
        stages=[
            StageSpec(
                "copy_producer", producer, policy=TileSync(), optimizations=OptimizationFlags.wrt()
            ),
            StageSpec(
                "copy_consumer", consumer, policy=TileSync(), optimizations=OptimizationFlags.wrt()
            ),
        ],
        edges=[Edge("copy_producer", "copy_consumer", tensor="mid")],
    )
    session = Session(arch=arch, cost_model=cost_model)
    streamsync_us = session.run(graph, scheme="streamsync").total_time_us
    cusync_us = session.run(graph, scheme="cusync").total_time_us
    return {
        "blocks_per_kernel": float(blocks),
        "occupancy": float(occupancy),
        "streamsync_us": streamsync_us,
        "cusync_us": cusync_us,
        "overhead": (cusync_us - streamsync_us) / streamsync_us,
    }


# ----------------------------------------------------------------------
# Serving — request-level latency percentiles under open-loop load
# ----------------------------------------------------------------------
def serving_comparison(
    requests: int = 48,
    rate_rps: float = 400.0,
    seed: int = 7,
    schemes: Sequence[str] = ("streamsync", "streamk", "cusync"),
    policy: str = "TileSync",
    config=None,
    slo_us: float = 5_000.0,
    session: Optional[Session] = None,
) -> List[Dict[str, object]]:
    """Request-level serving comparison: one scenario, every scheme.

    This is where the paper's per-kernel-launch improvement compounds:
    under open-loop Poisson load, per-iteration latency differences feed
    back through the queue, so a scheme that shaves each iteration also
    drains the queue faster and cuts the p99 *more* than the per-run
    speedup alone suggests.  One seeded
    :class:`~repro.serving.ServingScenario` (arrivals *and* length mix
    pinned by ``seed``) runs under every scheme through a shared
    :class:`~repro.pipeline.Session`, so each report's cache counters
    describe that scheme's run alone.

    Returns one row per scheme: the
    :meth:`~repro.serving.LatencyReport.summary` dict (percentiles,
    TTFT, throughput, goodput and cache-hit counters) — deterministic
    for fixed arguments, which is what the benchmark gate relies on.
    """
    from repro.models.config import TransformerConfig
    from repro.serving import PoissonArrivals, ServingScenario, compare_schemes

    if config is None:
        config = TransformerConfig(
            name="srv-small", hidden=256, layers=2, tensor_parallel=8
        )
    scenario = ServingScenario(
        arrivals=PoissonArrivals(
            rate_rps=rate_rps,
            prompt_tokens=(16, 96),
            decode_tokens=(2, 8),
            seed=seed,
        ),
        requests=requests,
        config=config,
        max_batch=4,
        max_kv_tokens=2048,
        max_prefill_tokens=256,
        slo_us=slo_us,
    )
    reports = compare_schemes(
        scenario, schemes=schemes, policy=policy, session=session
    )
    return [reports[scheme].summary() for scheme in schemes]
