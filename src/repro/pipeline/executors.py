"""The execution layer: pluggable backends for :class:`~repro.pipeline.graph.PipelineGraph`.

An :class:`Executor` turns the immutable graph description into one concrete
run: it binds per-execution state (semaphores, CuStage objects, stream
assignment, the cost model) to the graph's kernels, builds the launches and
simulates them.  There are three backends, one per scheme —

* ``streamsync`` — the paper's baseline: every kernel stripped of
  fine-grained synchronization, serialized on one stream;
* ``streamk``    — Stream-K GeMM decomposition under stream sync;
* ``cusync``     — the cuSync pipeline under a chosen policy family.

Each backend builds its own launch list and hands it to one shared step that
loads the run's tensors, allocates functional outputs and runs the
:class:`~repro.gpu.simulator.GpuSimulator`.

Backends never rebuild kernels: the graph's kernel objects are *re-bound*
for each execution (their ``sync`` / ``cost_model`` / ``functional``
execution slots are pointed at fresh per-run state, which also invalidates
any memoized plans), so the same graph can be run under every scheme,
policy and architecture in any order with bit-identical results.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Type, Union

import numpy as np

from repro.common.dim3 import Dim3
from repro.errors import GraphValidationError, ModelConfigError, SimulationError
from repro.gpu.arch import GpuArchitecture, TESLA_V100
from repro.gpu.costmodel import CostModel
from repro.gpu.kernel import KernelLaunch, Segment, ThreadBlockProgram
from repro.gpu.memory import GlobalMemory
from repro.gpu.simulator import GpuSimulator, SimulationResult
from repro.gpu.stream import Stream
from repro.kernels.base import NoSync, TiledKernel
from repro.kernels.gemm import GemmKernel
from repro.kernels.streamk import StreamKGemmKernel
from repro.cusync.custage import CuStage
from repro.cusync.optimizations import OptimizationFlags, auto_optimizations
from repro.cusync.policies import (
    PolicyAssignment,
    PolicyContext,
    PolicySpec,
    SyncPolicy,
)
from repro.cusync import policies as policy_registry
from repro.cusync.semaphores import SemaphoreAllocator
from repro.cusync.tile_orders import RowMajorOrder, TileOrder
from repro.pipeline.graph import Edge, PipelineGraph, StageSpec

#: Policy selector accepted by the cusync backend: a policy family name
#: (``"TileSync"``, ``"RowSync"``, ...), a :class:`PolicySpec` or a per-edge
#: :class:`PolicyAssignment`.  Policy instances go on the graph instead
#: (:attr:`StageSpec.policy`, :attr:`Edge.policy`).
PolicyLike = Union[str, PolicySpec, PolicyAssignment]

#: Occupancy of the single-block wait-kernel (it uses almost no resources).
WAIT_KERNEL_OCCUPANCY = 32


@dataclass
class PipelineResult:
    """Outcome of running a graph on the simulator."""

    simulation: SimulationResult
    wait_kernel_names: List[str] = field(default_factory=list)

    @property
    def total_time_us(self) -> float:
        """End-to-end time of the pipeline (host launch to last block end)."""
        return self.simulation.total_time_us

    @property
    def memory(self) -> GlobalMemory:
        return self.simulation.memory

    def kernel_duration_us(self, name: str) -> float:
        return self.simulation.kernel_duration_us(name)

    def total_wait_time_us(self) -> float:
        """Total busy-wait time across all blocks (synchronization cost)."""
        return self.simulation.trace.wait_time_us

    def tensor(self, name: str) -> np.ndarray:
        """Fetch a tensor from simulated global memory (functional mode)."""
        return self.memory.tensor(name)

    def summary(self) -> str:
        return self.simulation.trace.summary()


# ----------------------------------------------------------------------
# Per-stage policy resolution
# ----------------------------------------------------------------------
def policy_context(stage: StageSpec) -> PolicyContext:
    """The registry context describing ``stage`` as a producer."""
    return PolicyContext(
        stage_name=stage.name,
        logical_grid=stage.kernel.stage_geometry().logical_grid,
        strided_groups=stage.strided_groups,
    )


def resolve_policy(family: Union[str, PolicySpec], stage: StageSpec) -> SyncPolicy:
    """Build the policy instance a named family uses for one stage.

    Thin wrapper over the :mod:`repro.cusync.policies` registry
    (:func:`repro.cusync.policies.resolve_policy`) binding the stage's
    :class:`~repro.cusync.policies.PolicyContext`.  ``StridedTileSync``
    falls back to plain TileSync when the stage declares no
    ``strided_groups`` or its grid's x extent is not an (integer) multiple
    of them.
    """
    return policy_registry.resolve_policy(family, policy_context(stage))


def resolve_order(family: Union[str, PolicySpec], stage: StageSpec) -> TileOrder:
    """Tile processing order paired with a policy family for one stage."""
    order = policy_registry.resolve_order_for(family, policy_context(stage))
    return order if order is not None else RowMajorOrder()


def auto_flags(graph: PipelineGraph, arch: GpuArchitecture) -> Dict[str, OptimizationFlags]:
    """The automatic W/R/T choice of Section IV-C, one flag set per stage.

    Flags are derived per dependency edge from the *actual* producer and
    consumer kernels: an edge is "small" when both endpoints fit in fewer
    than two waves.  A consumer may elide its wait-kernel (W) only when
    every edge into it is small; a stage may skip the custom tile order (T)
    only when every incident edge is small; reordering tile loads (R) never
    hurts in this model and is always enabled.  Kernels report occupancy
    through their bound cost model, so bind ``arch``'s model first, as
    the cuSync backend does.
    """

    def edge_is_small(producer: str, consumer: str) -> bool:
        # Delegate the Section IV-C rule to the one canonical implementation;
        # auto_optimizations elides the wait-kernel exactly when both
        # endpoints fit in fewer than two waves.
        first, second = graph.stage(producer).kernel, graph.stage(consumer).kernel
        return auto_optimizations(
            producer_blocks=first.grid.volume,
            consumer_blocks=second.grid.volume,
            producer_occupancy=first.occupancy(),
            consumer_occupancy=second.occupancy(),
            arch=arch,
        ).avoid_wait_kernel

    flags: Dict[str, OptimizationFlags] = {}
    for stage in graph.topological_order:
        incoming = [edge_is_small(e.producer, e.consumer) for e in graph.in_edges(stage.name)]
        outgoing = [edge_is_small(e.producer, e.consumer) for e in graph.out_edges(stage.name)]
        flags[stage.name] = OptimizationFlags(
            avoid_wait_kernel=all(incoming),
            reorder_loads=True,
            avoid_custom_tile_order=all(incoming) and all(outgoing),
        )
    return flags


# ----------------------------------------------------------------------
# Execution context and backend protocol
# ----------------------------------------------------------------------
@dataclass
class ExecutionContext:
    """Everything one execution of a graph depends on besides the graph."""

    arch: GpuArchitecture = TESLA_V100
    cost_model: Optional[CostModel] = None
    functional: bool = False
    #: Policy selection for the cusync backend: family name, PolicySpec or
    #: per-edge PolicyAssignment.
    policy: PolicyLike = "TileSync"
    #: Explicit optimization flags; ``None`` applies the automatic per-edge
    #: W/R/T choice of Section IV-C.
    optimizations: Optional[OptimizationFlags] = None
    memory: Optional[GlobalMemory] = None
    tensors: Optional[Dict[str, np.ndarray]] = None

    def resolved_cost_model(self) -> CostModel:
        """The run's cost model: ``cost_model``, or ``arch``'s default.

        A model calibrated for another architecture raises
        :class:`~repro.errors.ModelConfigError` naming both: its results
        would be labelled with ``arch`` but priced on the other GPU.
        """
        if self.cost_model is None:
            return CostModel(arch=self.arch)
        check_calibrated_for(self.cost_model, self.arch)
        return self.cost_model


def check_calibrated_for(cost_model: CostModel, arch: GpuArchitecture) -> None:
    """Raise :class:`ModelConfigError` unless ``cost_model`` prices ``arch``."""
    if cost_model.arch != arch:
        raise ModelConfigError(
            f"the cost model is calibrated for {cost_model.arch.name!r}, "
            f"but the run is on {arch.name!r}"
        )


class Executor(ABC):
    """One way of executing a :class:`PipelineGraph` (a *scheme*)."""

    #: Scheme name (``streamsync`` / ``streamk`` / ``cusync``).
    scheme: str = ""

    @abstractmethod
    def run(self, graph: PipelineGraph, ctx: ExecutionContext) -> PipelineResult:
        """Execute ``graph`` under this scheme and return the result."""


# ----------------------------------------------------------------------
# The three paper backends
# ----------------------------------------------------------------------
def _simulate(
    graph: PipelineGraph,
    ctx: ExecutionContext,
    cost_model: CostModel,
    launches: List[KernelLaunch],
    stages: Sequence[CuStage] = (),
) -> PipelineResult:
    """Set up the run's memory and simulate ``launches``.

    Loads ``ctx.tensors`` into ``ctx.memory`` (a fresh memory when unset),
    allocates the kernels' outputs in functional mode and the semaphore
    arrays of the cuSync ``stages``.  With ``stages``, the producers'
    outputs are the tensors race-checked in functional mode.  Once the
    simulator returns or raises, every graph kernel is rebound to
    :class:`NoSync`, which drops the run's stages and per-binding tables.
    """
    memory = ctx.memory if ctx.memory is not None else GlobalMemory()
    if ctx.tensors:
        for name, array in ctx.tensors.items():
            memory.store_tensor(name, array)
    if ctx.functional:
        for kernel in graph.kernels:
            kernel.allocate_functional_tensors(memory)
    tracked = None
    if stages:
        SemaphoreAllocator(memory).allocate(stages)
        tracked = {stage.geometry.output for stage in stages if stage.is_producer}
    simulator = GpuSimulator(
        arch=ctx.arch,
        memory=memory,
        cost_model=cost_model,
        functional=ctx.functional,
        tracked_tensors=tracked,
    )
    try:
        simulation = simulator.run(launches)
    finally:
        for kernel in graph.kernels:
            kernel.sync = NoSync()
    return PipelineResult(
        simulation=simulation,
        wait_kernel_names=[f"waitkernel_{stage.name}" for stage in stages if stage.needs_wait_kernel()],
    )


def _serialized_launch(
    kernel: TiledKernel, cost_model: CostModel, functional: bool, stream: Stream
) -> KernelLaunch:
    """``kernel`` stripped of fine-grained synchronization, on ``stream``."""
    kernel.sync = NoSync()
    kernel.cost_model = cost_model
    kernel.functional = functional
    return kernel.build_launch(stream=stream)


class StreamSyncBackend(Executor):
    """CUDA stream synchronization: the paper's baseline.

    Every kernel is stripped of fine-grained synchronization and all of
    them launch back to back on one stream, so a consumer starts only after
    every thread block of its producer finished.
    """

    scheme = "streamsync"

    def run(self, graph: PipelineGraph, ctx: ExecutionContext) -> PipelineResult:
        cost_model = ctx.resolved_cost_model()
        stream = Stream(priority=0, name="stream_sync")
        launches = [
            _serialized_launch(kernel, cost_model, ctx.functional, stream) for kernel in graph.kernels
        ]
        return _simulate(graph, ctx, cost_model, launches)


class StreamKBackend(Executor):
    """Stream-K GeMM decomposition under stream synchronization.

    Each GeMM is split into data-parallel full waves plus one work-centric
    wave for the remainder; other kernels run as under StreamSync, all on
    one stream.  Stream-K improves each GeMM individually but cannot overlap
    dependent kernels, the distinction Section V-H draws against cuSync.
    Only plain GeMMs convert, which is why Stream-K does not apply to the
    Conv2D workloads.
    """

    scheme = "streamk"

    def run(self, graph: PipelineGraph, ctx: ExecutionContext) -> PipelineResult:
        if ctx.functional:
            raise SimulationError(
                "the streamk backend models timing only: Stream-K partial-tile "
                "accumulation order is not reproduced numerically, so functional "
                "simulation is not supported under scheme='streamk'"
            )
        cost_model = ctx.resolved_cost_model()
        stream = Stream(priority=0, name="stream_k")
        launches: List[KernelLaunch] = []
        for kernel in graph.kernels:
            if type(kernel) is GemmKernel:
                # Stream-K variants are per-execution derivations (they
                # re-partition the K dimension for the target arch); the
                # graph's own kernels are left untouched.
                streamk = StreamKGemmKernel(
                    name=kernel.name,
                    problem=kernel.problem,
                    config=kernel.config,
                    epilogue=kernel.epilogue,
                    cost_model=cost_model,
                )
                launches.extend(streamk.build_launches(stream=stream))
            else:
                launches.append(_serialized_launch(kernel, cost_model, False, stream))
        return _simulate(graph, ctx, cost_model, launches)


class CuSyncBackend(Executor):
    """Fine-grained tile synchronization: the paper's cuSync pipelines.

    Per execution this backend binds a fresh
    :class:`~repro.cusync.custage.CuStage` to each stage's kernel, wires
    the stages from the graph's edges and launches each stage on its own
    stream (priority = launch index), with a wait-kernel in front of every
    consumer unless the W optimization elides it (the host code of the
    paper's Figure 4a).  The binding dies with the run: once the simulator
    returns or raises, every kernel is rebound to :class:`NoSync`, so no
    stage, plan cache, post table or block-program table outlives it, and
    the graph and its kernels survive unchanged for the next run.
    """

    scheme = "cusync"

    def run(self, graph: PipelineGraph, ctx: ExecutionContext) -> PipelineResult:
        cost_model = ctx.resolved_cost_model()
        # Bind this run's cost model before any occupancy is derived: the
        # automatic flag selection below reads kernel.occupancy(), which
        # must reflect ctx.arch, not whatever architecture the kernel was
        # constructed (or last run) with.
        for spec in graph.topological_order:
            spec.kernel.cost_model = cost_model

        per_stage_flags: Optional[Dict[str, OptimizationFlags]] = None
        if ctx.optimizations is None:
            per_stage_flags = auto_flags(graph, ctx.arch)
        assignment = PolicyAssignment.coerce(ctx.policy)
        _check_assignment(assignment, graph)

        stages: Dict[str, CuStage] = {}
        for index, spec in enumerate(graph.topological_order):
            family = assignment.spec_for_stage(spec.name)
            if spec.optimizations is not None:
                flags = spec.optimizations
            elif ctx.optimizations is not None:
                flags = ctx.optimizations
            else:
                flags = per_stage_flags[spec.name]
            stage = CuStage(
                name=spec.name,
                geometry=spec.kernel.stage_geometry(),
                policy=spec.policy if spec.policy is not None else resolve_policy(family, spec),
                order=spec.order if spec.order is not None else resolve_order(family, spec),
                optimizations=flags,
            )
            stage.stage_index = index
            stage.functional = ctx.functional
            spec.kernel.sync = stage
            spec.kernel.functional = ctx.functional
            stages[spec.name] = stage
        for spec in graph.topological_order:
            for edge in graph.in_edges(spec.name):
                stages[edge.consumer].depends_on(
                    stages[edge.producer],
                    edge.tensor,
                    range_map=edge.range_map,
                    policy=self._edge_policy(edge, graph, assignment),
                )

        launches: List[KernelLaunch] = []
        for spec in graph.topological_order:
            stage = stages[spec.name]
            stream = Stream(priority=stage.stage_index, name=f"stream_{stage.name}")
            if stage.needs_wait_kernel():
                launches.append(_wait_kernel_launch(stage, stream, cost_model))
            launches.append(spec.kernel.build_launch(stream=stream))
        return _simulate(graph, ctx, cost_model, launches, list(stages.values()))

    @staticmethod
    def _edge_policy(
        edge: Edge, graph: PipelineGraph, assignment: PolicyAssignment
    ) -> Optional[SyncPolicy]:
        """The policy instance guarding one edge, or ``None`` to inherit.

        Precedence: the edge's own ``policy`` field, then the run
        assignment's per-edge entry, then the producer stage's policy
        (returned as ``None``).  :meth:`CuStage.register_edge_policy` maps
        ``None`` and overrides equal to the producer's policy to slot 0.
        """
        selected: Optional[Union[str, PolicySpec, SyncPolicy]] = edge.policy
        if selected is None:
            selected = assignment.spec_for_edge(edge.producer, edge.consumer, edge.tensor)
        if selected is None or isinstance(selected, SyncPolicy):
            return selected
        return resolve_policy(selected, graph.stage(edge.producer))


_EXECUTORS: Dict[str, Type[Executor]] = {
    backend.scheme: backend for backend in (StreamSyncBackend, StreamKBackend, CuSyncBackend)
}


def scheme_name(scheme: str) -> str:
    """``scheme`` in its backend's lower-case spelling; an unknown scheme
    raises :class:`GraphValidationError` naming the available ones."""
    name = scheme.lower() if isinstance(scheme, str) else None
    if name not in _EXECUTORS:
        raise GraphValidationError(
            f"unknown execution scheme {scheme!r}; available: {', '.join(available_schemes())}"
        )
    return name


def get_executor(scheme: str) -> Executor:
    """Instantiate the backend for ``scheme``."""
    return _EXECUTORS[scheme_name(scheme)]()


def available_schemes() -> List[str]:
    return sorted(_EXECUTORS)


def _wait_kernel_launch(stage: CuStage, stream: Stream, cost_model: CostModel) -> KernelLaunch:
    """Single-block kernel that blocks the consumer's stream until every
    producer has started (Section III-B)."""
    waits = stage.wait_kernel_waits()
    poll_duration = cost_model.wait_kernel_poll_us()

    def build(tile: Dim3) -> ThreadBlockProgram:
        segment = Segment(
            label="wait-kernel",
            waits=list(waits),
            duration_us=poll_duration,
            # The real wait kernel busy-waits at poll granularity; the
            # simulated block parks in the wake index instead (woken once,
            # no re-dispatch) and back-charges the polls it would have
            # issued while parked.
            poll_interval_us=poll_duration,
        )
        return ThreadBlockProgram(tile=tile, segments=[segment])

    return KernelLaunch(
        name=f"waitkernel_{stage.name}",
        grid=Dim3(1, 1, 1),
        program_builder=build,
        occupancy=WAIT_KERNEL_OCCUPANCY,
        stream=stream,
        tags={"kernel_class": "WaitKernel"},
    )


def _check_assignment(assignment: PolicyAssignment, graph: PipelineGraph) -> None:
    """Reject assignments addressing stages/edges the graph does not have."""
    stage_names = set(stage.name for stage in graph.stages)
    for name in assignment.stage_names():
        if name not in stage_names:
            raise GraphValidationError(
                f"policy assignment names stage {name!r}, but the graph has no "
                f"such stage (stages: {', '.join(sorted(stage_names))})"
            )
    edge_triples = {(edge.producer, edge.consumer, edge.tensor) for edge in graph.edges}
    edge_pairs = {(producer, consumer) for producer, consumer, _ in edge_triples}
    for producer, consumer, tensor in assignment.edge_keys():
        if tensor is None:
            if (producer, consumer) not in edge_pairs:
                raise GraphValidationError(
                    f"policy assignment names edge {producer!r} -> {consumer!r}, "
                    "but the graph has no edge between those stages"
                )
        elif (producer, consumer, tensor) not in edge_triples:
            raise GraphValidationError(
                f"policy assignment names edge {producer!r} -> {consumer!r} for "
                f"tensor {tensor!r}, but the graph has no such edge"
            )
