"""The declarative pipeline description: one immutable :class:`PipelineGraph`.

A graph is the *context-independent* half of a synchronized pipeline: named
stages wrapping :class:`~repro.kernels.base.TiledKernel` objects, and typed
producer → consumer edges carrying the tensor (and optional
:data:`~repro.cusync.custage.RangeMap`) the consumer reads.  Everything that
depends on a particular run — the synchronization scheme, the policy family,
the architecture, semaphores, stream assignment — lives in the executors
(:mod:`repro.pipeline.executors`) and is bound per execution, so one graph
built once can be run many times (and swept concurrently) without ever
rebuilding its kernels.

Graphs are validated at construction: duplicate stage names, dangling
edges, edges whose tensor the producer does not write, duplicate
``(consumer, tensor)`` dependencies and cycles all raise
:class:`~repro.errors.GraphValidationError` immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from typing import Union

from repro.errors import GraphValidationError
from repro.cusync.custage import RangeMap
from repro.cusync.optimizations import OptimizationFlags
from repro.cusync.policies import PolicySpec, SyncPolicy
from repro.cusync.tile_orders import TileOrder
from repro.kernels.base import TiledKernel


@dataclass(frozen=True)
class StageSpec:
    """One named stage of a pipeline graph.

    The kernel describes *what* is computed; the optional ``policy`` /
    ``order`` / ``optimizations`` fields override the run-time selection for
    this stage only (the common case leaves them ``None`` and picks a policy
    family at :func:`repro.pipeline.run` time).
    """

    name: str
    kernel: TiledKernel
    #: When run under ``StridedTileSync``, this stage's semaphores group
    #: ``strided_groups`` column tiles together (the Q/K/V slices of a fused
    #: attention GeMM).
    strided_groups: Optional[int] = None
    #: Per-stage policy override (wins over the run's policy family).
    policy: Optional[SyncPolicy] = None
    #: Per-stage tile-order override.
    order: Optional[TileOrder] = None
    #: Per-stage optimization-flag override (wins over the run's flags).
    optimizations: Optional[OptimizationFlags] = None


@dataclass(frozen=True)
class Edge:
    """A typed producer → consumer dependence for one tensor.

    ``range_map`` translates element coordinates of the consumer's read into
    coordinates of the producer's output; when absent, ``tensor`` must be
    the tensor the producer kernel writes.

    ``policy`` pins the synchronization policy of *this edge only* — a
    family name, a :class:`~repro.cusync.policies.PolicySpec` or a ready
    :class:`~repro.cusync.policies.SyncPolicy` — overriding both the
    run-time policy selection and the producer stage's default, so sibling
    edges of one graph can synchronize under different policies in the same
    execution.  Left ``None``, the run's
    :class:`~repro.cusync.policies.PolicyAssignment` (or the producer's
    stage policy) decides.
    """

    producer: str
    consumer: str
    tensor: str
    range_map: Optional[RangeMap] = field(default=None, compare=False)
    policy: Optional[Union[str, PolicySpec, SyncPolicy]] = None


class PipelineGraph:
    """An immutable DAG of dependent kernels, reusable across executions.

    Typical use (the paper's two-GeMM MLP)::

        graph = PipelineGraph(
            stages=[StageSpec("gemm1", producer), StageSpec("gemm2", consumer)],
            edges=[Edge("gemm1", "gemm2", tensor="XW1")],
        )
        result = repro.pipeline.run(graph, scheme="cusync", policy="TileSync")

    The same graph object can then be run under a different scheme, policy
    or architecture — executors never mutate the graph and never rebuild its
    kernels.
    """

    def __init__(
        self,
        stages: Sequence[StageSpec],
        edges: Sequence[Edge] = (),
        name: Optional[str] = None,
    ) -> None:
        self._name: Optional[str] = name
        self._stages: Tuple[StageSpec, ...] = tuple(stages)
        self._edges: Tuple[Edge, ...] = tuple(edges)
        if not self._stages:
            raise GraphValidationError("a PipelineGraph needs at least one stage")
        self._by_name: Dict[str, StageSpec] = {}
        self._validate_stages()
        # _validate_edges populates these adjacency maps.
        self._in_edges: Dict[str, Tuple[Edge, ...]]
        self._out_edges: Dict[str, Tuple[Edge, ...]]
        self._validate_edges()
        self._topological: Tuple[StageSpec, ...] = self._topological_sort()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate_stages(self) -> None:
        kernel_ids: Dict[int, str] = {}
        for stage in self._stages:
            if not stage.name:
                raise GraphValidationError("stage names must be non-empty")
            if stage.name in self._by_name:
                raise GraphValidationError(f"duplicate stage name {stage.name!r}")
            owner = kernel_ids.get(id(stage.kernel))
            if owner is not None:
                raise GraphValidationError(
                    f"stages {owner!r} and {stage.name!r} share one kernel object; "
                    "every stage needs its own kernel (synchronization state is "
                    "bound per stage at execution time)"
                )
            kernel_ids[id(stage.kernel)] = stage.name
            self._by_name[stage.name] = stage

    def _validate_edges(self) -> None:
        seen: set = set()
        in_edges: Dict[str, List[Edge]] = {name: [] for name in self._by_name}
        out_edges: Dict[str, List[Edge]] = {name: [] for name in self._by_name}
        for edge in self._edges:
            for endpoint in (edge.producer, edge.consumer):
                if endpoint not in self._by_name:
                    raise GraphValidationError(
                        f"dangling edge {edge.producer!r} -> {edge.consumer!r}: "
                        f"stage {endpoint!r} is not part of the graph"
                    )
            if edge.producer == edge.consumer:
                raise GraphValidationError(
                    f"stage {edge.producer!r} cannot depend on itself (tensor {edge.tensor!r})"
                )
            key = (edge.consumer, edge.tensor)
            if key in seen:
                raise GraphValidationError(
                    f"stage {edge.consumer!r} declares two dependencies for tensor {edge.tensor!r}"
                )
            seen.add(key)
            if edge.range_map is None:
                produced = self._produced_tensor(self._by_name[edge.producer])
                if produced is not None and edge.tensor != produced:
                    raise GraphValidationError(
                        f"edge {edge.producer!r} -> {edge.consumer!r} reads tensor "
                        f"{edge.tensor!r}, but stage {edge.producer!r} writes "
                        f"{produced!r} (add a range_map to read an aliased slice)"
                    )
            in_edges[edge.consumer].append(edge)
            out_edges[edge.producer].append(edge)
        self._in_edges = {name: tuple(edges) for name, edges in in_edges.items()}
        self._out_edges = {name: tuple(edges) for name, edges in out_edges.items()}

    @staticmethod
    def _produced_tensor(stage: StageSpec) -> Optional[str]:
        try:
            return stage.kernel.stage_geometry().output
        except NotImplementedError:
            return None

    def _topological_sort(self) -> Tuple[StageSpec, ...]:
        """Stable topological order (declaration order among ready stages)."""
        position = {stage.name: index for index, stage in enumerate(self._stages)}
        remaining_deps = {
            stage.name: {edge.producer for edge in self._in_edges[stage.name]}
            for stage in self._stages
        }
        ready = sorted(
            (name for name, deps in remaining_deps.items() if not deps),
            key=position.__getitem__,
        )
        queued = set(ready)
        ordered: List[str] = []
        while ready:
            name = ready.pop(0)
            ordered.append(name)
            for consumer in {edge.consumer for edge in self._out_edges[name]}:
                deps = remaining_deps[consumer]
                deps.discard(name)
                if not deps and consumer not in queued:
                    queued.add(consumer)
                    ready.append(consumer)
            ready.sort(key=position.__getitem__)
        if len(ordered) != len(self._stages):
            stuck = sorted(set(self._by_name) - set(ordered))
            raise GraphValidationError(
                f"dependency cycle involving stages {', '.join(repr(s) for s in stuck)}"
            )
        return tuple(self._by_name[name] for name in ordered)

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------
    @property
    def name(self) -> Optional[str]:
        """Optional graph label, used to attribute multi-graph sweep results."""
        return self._name

    def renamed(self, name: Optional[str]) -> "PipelineGraph":
        """A copy of this graph carrying ``name`` as its label.

        The name is a reporting label, not structure: the copy has the
        same structural fingerprint as the original and therefore shares
        sweep-cache and result-store entries with it.  The copy *shares*
        the original's stage and kernel objects, so treat it as a
        build-then-rename replacement for the original — do not evaluate
        the original and the renamed copy concurrently (for example from
        one ``SweepService``, whose per-graph locks key on object
        identity), or the two would re-bind the same kernels at once.
        """
        return PipelineGraph(stages=self._stages, edges=self._edges, name=name)

    @property
    def stages(self) -> Tuple[StageSpec, ...]:
        """Stages in declaration order."""
        return self._stages

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return self._edges

    @property
    def topological_order(self) -> Tuple[StageSpec, ...]:
        """Stages in producer-before-consumer (launch) order."""
        return self._topological

    @property
    def stage_names(self) -> Tuple[str, ...]:
        return tuple(stage.name for stage in self._topological)

    @property
    def kernels(self) -> Tuple[TiledKernel, ...]:
        """Kernels in launch order."""
        return tuple(stage.kernel for stage in self._topological)

    def stage(self, name: str) -> StageSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphValidationError(f"graph has no stage named {name!r}") from None

    def in_edges(self, name: str) -> Tuple[Edge, ...]:
        """Edges into ``name`` (its dependencies), in declaration order."""
        self.stage(name)
        return self._in_edges[name]

    def out_edges(self, name: str) -> Tuple[Edge, ...]:
        """Edges out of ``name`` (its consumers), in declaration order."""
        self.stage(name)
        return self._out_edges[name]

    def __len__(self) -> int:
        return len(self._stages)

    def __iter__(self) -> Iterable[StageSpec]:
        return iter(self._topological)

    # ------------------------------------------------------------------
    # Structural identity
    # ------------------------------------------------------------------
    def structural_state(self) -> Tuple:
        """Canonical value-level description of the graph's structure.

        Covers everything that determines simulation results: stage names
        in declaration order, each stage's kernel (class plus
        configuration, via :meth:`TiledKernel.structural_state
        <repro.kernels.base.TiledKernel.structural_state>`), strided
        grouping and policy/order/optimization overrides, and every edge's
        endpoints, tensor, range map and policy override.  The graph
        *name* is excluded — it is a reporting label, not structure.

        Note ``range_map`` **is** part of the structural state even though
        :class:`Edge` equality ignores it (it defaults to ``compare=False``
        because callables rarely compare meaningfully): two graphs whose
        edges map consumer reads differently simulate differently, so they
        must never share a fingerprint.  Raises
        :class:`~repro.pipeline.structural.UnportableValueError` when the
        graph holds values without a process-independent identity (closure
        range maps, ad-hoc callables).
        """
        from repro.pipeline.structural import canonicalize

        cached = self.__dict__.get("_structural_state")
        if cached is not None:
            return cached
        stages = []
        for stage in self._stages:
            stages.append(
                (
                    "stage",
                    stage.name,
                    stage.kernel.structural_state(),
                    canonicalize(stage.strided_groups),
                    canonicalize(stage.policy),
                    canonicalize(stage.order),
                    canonicalize(stage.optimizations),
                )
            )
        edges = []
        for edge in self._edges:
            edges.append(
                (
                    "edge",
                    edge.producer,
                    edge.consumer,
                    edge.tensor,
                    canonicalize(edge.range_map),
                    canonicalize(edge.policy),
                )
            )
        state = ("pipeline-graph/v1", tuple(stages), tuple(edges))
        self._structural_state = state
        return state

    def structural_fingerprint(self) -> Optional[str]:
        """Process-independent content hash of the graph, or ``None``.

        Equal graphs — built in different processes, or rebuilt in this
        one — share the fingerprint, which is what lets sweep caches and
        the disk-backed result store replay results across graph objects
        and process lifetimes.  Returns ``None`` when the graph has no
        portable structural identity (see :meth:`structural_state`);
        callers then fall back to per-process identity keying.
        """
        from repro.pipeline.structural import (
            UnportableValueError,
            canonicalize,  # noqa: F401  (re-exported for callers)
            fingerprint,
        )

        if "_structural_fingerprint" in self.__dict__:
            return self._structural_fingerprint
        try:
            digest: Optional[str] = fingerprint(self.structural_state())
        except UnportableValueError:
            digest = None
        self._structural_fingerprint = digest
        return digest

    def describe(self) -> str:
        parts = [f"{stage.name}[{stage.kernel.grid}]" for stage in self._topological]
        label = f"{self._name!r}, " if self._name else ""
        return f"PipelineGraph({label}{' -> '.join(parts)}, {len(self._edges)} edges)"

    def __repr__(self) -> str:
        return self.describe()


def linear_graph(kernels: Sequence[TiledKernel], tensors: Sequence[str]) -> PipelineGraph:
    """Convenience builder for a straight chain: kernel *i+1* reads ``tensors[i]``.

    ``tensors`` has one entry per edge (``len(kernels) - 1``).
    """
    if len(tensors) != max(0, len(kernels) - 1):
        raise GraphValidationError(
            f"linear_graph needs one tensor per edge: {len(kernels)} kernels "
            f"but {len(tensors)} tensors"
        )
    stages = [StageSpec(name=kernel.name, kernel=kernel) for kernel in kernels]
    edges = [
        Edge(producer=stages[i].name, consumer=stages[i + 1].name, tensor=tensors[i])
        for i in range(len(tensors))
    ]
    return PipelineGraph(stages=stages, edges=edges)
