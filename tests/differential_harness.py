"""Differential harness: one reusable fixture for sweep-mode parity.

The execution layer guarantees that any ``(workload, arch, scheme,
policy)`` point produces **bit-identical** results no matter which
``Session.sweep`` mode evaluates it — ``serial`` or ``process``.  This
module is one parameterized parity harness that any test can feed an
arbitrary work list:

* :func:`small_workloads` — the five model workloads at small shapes
  (tiny transformer configs, the smallest conv stage), cheap enough to
  sweep across several architectures in a test;
* :func:`differential_work` — the ``(graph, arch, scheme, policy)`` cube
  as a ``Session.sweep`` work list, built via
  :func:`repro.pipeline.sweep_archs`;
* :func:`assert_modes_identical` — runs a work list through both modes
  on fresh sessions and asserts exact equality.  Graphs that carry
  closure range maps (LLaMA's SwiGLU edge) cannot cross process
  boundaries, so the process mode runs on the picklable subset of the
  work and is compared positionally;
* :func:`capture_trace` / :func:`assert_traces_equivalent` — full
  block-level trace capture for equivalence arguments that go beyond the
  sweep summary (e.g. the slot-0 post-elision defence).
"""

from __future__ import annotations

import pickle
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.models import Attention, ConvChain, GptMlp, LlamaMlp, TransformerConfig
from repro.models.config import RESNET38_LAYERS, VGG19_LAYERS
from repro.models.workload import Workload
from repro.pipeline import PipelineGraph, Session, SweepPoint, SweepResult, run, sweep_archs

#: Tiny transformer shards: full dependence structure, few thread blocks.
TINY_GPT = TransformerConfig(name="tiny-gpt", hidden=256, layers=2, tensor_parallel=8)
TINY_LLAMA = TransformerConfig(
    name="tiny-llama", hidden=384, layers=2, tensor_parallel=8, swiglu=True
)

#: Policy families exercised per workload (mirrors the bench experiments).
WORKLOAD_POLICIES: Dict[str, Tuple[str, ...]] = {
    "mlp": ("TileSync", "RowSync"),
    "llama_mlp": ("TileSync", "RowSync", "StridedTileSync"),
    "attention": ("TileSync", "StridedTileSync"),
    "conv_resnet": ("RowSync", "Conv2DTileSync"),
    "conv_vgg": ("RowSync", "Conv2DTileSync"),
}


def small_workloads() -> Dict[str, Workload]:
    """The five model workloads at differential-test shapes."""
    resnet_spec = RESNET38_LAYERS[0]
    vgg_spec = VGG19_LAYERS[0]
    return {
        "mlp": GptMlp(config=TINY_GPT, batch_seq=96),
        "llama_mlp": LlamaMlp(config=TINY_LLAMA, batch_seq=96),
        "attention": Attention(config=TINY_GPT, batch=1, seq=64, cached=0),
        "conv_resnet": ConvChain(resnet_spec, batch=1),
        "conv_vgg": ConvChain(vgg_spec, batch=1),
    }


def differential_work(
    graphs: Iterable[PipelineGraph],
    arches: Sequence = ("V100", "A100"),
    schemes: Sequence[str] = ("streamsync", "cusync"),
    policies: Sequence[str] = ("TileSync",),
) -> List[Tuple[PipelineGraph, SweepPoint]]:
    """The (graph, arch, scheme, policy) cube as a sweep work list."""
    work: List[Tuple[PipelineGraph, SweepPoint]] = []
    for graph in graphs:
        work.extend(sweep_archs(graph, arches, policies=policies, schemes=schemes))
    return work


def _picklable(graph: PipelineGraph) -> bool:
    try:
        pickle.dumps(graph)
    except Exception:
        return False
    return True


def assert_modes_identical(
    work: Sequence[Tuple[PipelineGraph, SweepPoint]],
    session_arch="V100",
) -> List[SweepResult]:
    """Assert serial == process for ``work``; return the serial results.

    Each mode runs on a *fresh* session so neither benefits from the
    other's caches.  The process mode is restricted to the picklable graphs
    of the work list (closure-carrying graphs cannot cross process
    boundaries by design); its results are compared against the matching
    serial subset.  In sandboxes that forbid worker processes,
    ``Session.sweep`` already probes the pool and falls back to a serial
    evaluation of the same points, so the comparison still holds.
    """
    work = list(work)
    serial = Session(arch=session_arch).sweep(list(work), mode="serial")

    picklable_graphs = {id(graph) for graph, _ in work if _picklable(graph)}
    process_work = [(g, p) for g, p in work if id(g) in picklable_graphs]
    if process_work:
        process = Session(arch=session_arch).sweep(list(process_work), mode="process")
        serial_subset = [
            result
            for (graph, _), result in zip(work, serial)
            if id(graph) in picklable_graphs
        ]
        # graph_label is positional (graph0, graph1, ...) for unnamed
        # graphs, so compare label-insensitively when the subsets differ.
        if len(process_work) == len(work):
            assert process == serial_subset, "process-mode sweep diverged from serial"
        else:
            stripped = lambda results: [  # noqa: E731
                (r.scheme, r.policy, r.arch_name, r.total_time_us,
                 r.total_wait_time_us, r.kernel_durations_us)
                for r in results
            ]
            assert stripped(process) == stripped(serial_subset), (
                "process-mode sweep diverged from serial on the picklable subset"
            )
    return serial


def run_cube(
    arches: Sequence = ("V100", "A100"),
    workload_names: Optional[Sequence[str]] = None,
) -> List[SweepResult]:
    """Sweep the five small workloads over ``arches`` in both modes.

    The canonical acceptance check: every workload's per-family policy set
    plus the StreamSync baseline, per architecture, bit-identical across
    serial and process.  Returns the serial results for further shape
    assertions.
    """
    workloads = small_workloads()
    names = list(workload_names) if workload_names is not None else list(workloads)
    work: List[Tuple[PipelineGraph, SweepPoint]] = []
    for name in names:
        graph = workloads[name].to_graph()
        work.extend(
            differential_work(
                [graph],
                arches=arches,
                schemes=("streamsync", "cusync"),
                policies=WORKLOAD_POLICIES[name],
            )
        )
    return assert_modes_identical(work)


# ----------------------------------------------------------------------
# Full-trace equivalence (beyond the sweep summary)
# ----------------------------------------------------------------------
def capture_trace(graph: PipelineGraph, point: SweepPoint) -> Dict[str, object]:
    """Serialize the full block-level trace of one point (one run)."""
    result = run(
        graph,
        scheme=point.scheme,
        policy=point.policy if point.policy is not None else "TileSync",
        arch=point.resolved_arch(),
    )
    simulation = result.simulation
    trace = simulation.trace
    return {
        "total_time_us": simulation.total_time_us,
        "host_issue_time_us": simulation.host_issue_time_us,
        "kernels": {
            name: {
                "duration_us": stats.duration_us,
                "start_time_us": stats.start_time_us,
                "end_time_us": stats.end_time_us,
                "total_wait_time_us": stats.total_wait_time_us,
                "num_blocks": stats.num_blocks,
            }
            for name, stats in sorted(trace.kernels.items())
        },
        "blocks": [
            (
                record.kernel,
                (record.tile.x, record.tile.y, record.tile.z),
                record.dispatch_index,
                record.sm_id,
                record.dispatch_time_us,
                record.end_time_us,
                record.wait_time_us,
                record.work_time_us,
            )
            for record in trace.blocks
        ],
    }


def assert_traces_equivalent(actual: Dict[str, object], expected: Dict[str, object]) -> None:
    """Exact, field-by-field comparison of two captured traces."""
    assert actual["total_time_us"] == expected["total_time_us"]
    assert actual["host_issue_time_us"] == expected["host_issue_time_us"]
    assert sorted(actual["kernels"]) == sorted(expected["kernels"])
    for kernel_name, stats in expected["kernels"].items():
        assert actual["kernels"][kernel_name] == stats, f"kernel {kernel_name} diverged"
    assert len(actual["blocks"]) == len(expected["blocks"])
    for position, (got, want) in enumerate(zip(actual["blocks"], expected["blocks"])):
        assert got == want, (
            f"block record #{position} diverged\n  expected: {want}\n  actual:   {got}"
        )
