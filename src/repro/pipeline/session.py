"""One-shot :func:`run` and the reusable :class:`Session`.

``run(graph, scheme=..., policy=...)`` executes an immutable
:class:`~repro.pipeline.graph.PipelineGraph` once.  A :class:`Session` is
the stateful companion for repeated execution: it memoizes sweep
*results*, so sweeping a graph over many ``(scheme, policy, arch)``
points simulates each distinct point once and never rebuilds a kernel.
A calibration (a custom :class:`~repro.gpu.costmodel.CostModel`) is a
property of the run: ``run(cost_model=)`` or ``Session(cost_model=)``.

:meth:`Session.sweep` evaluates a grid of :class:`SweepPoint` work — either
the classic ``(scheme, policy, arch)`` product over one graph, or an
explicit iterable of ``(graph, SweepPoint)`` pairs mixing several graphs
and per-edge :class:`~repro.cusync.policies.PolicyAssignment` grids in one
call (:func:`sweep_policies` builds such grids).  Two execution modes are
available and produce bit-identical results, because the simulator is
deterministic and every point runs on an independent binding:

``mode="serial"`` (the default)
    A plain in-process loop; the only mode for closure-carrying graphs.
``mode="process"``
    Points fan out over ``concurrent.futures`` worker processes operating
    on pickled copies of the graphs.  Graphs whose range maps are ad-hoc
    closures cannot cross process boundaries.  It is the only mode that
    can kill a hung point (see ``timeout=`` below).

Sweeps degrade gracefully under partial failure: per-point ``timeout=``
and ``retries=`` (with deterministic jittered exponential backoff) bound
every point's cost, ``on_error="raise"|"collect"|"skip"`` decides whether
an exhausted point aborts the sweep, surfaces as a structured
:class:`SweepFailure` in the result list, or is dropped.  A crashed worker
process (``BrokenProcessPool``) respawns the pool and requeues the points
that were in flight; a timed-out point is cancelled (the pool is recycled,
since a busy-waiting worker cannot be interrupted politely) and retried.
Failed points are never written to the sweep cache, and every result
payload is sanity-checked before it is accepted, so a corrupted worker
reply is retried rather than cached.  The recovery machinery is exercised
deterministically by :mod:`repro.testing.faults`.
"""

from __future__ import annotations

import itertools
import math
import pickle
import random
import time
import traceback as traceback_module
import weakref
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.registry import registry_generation
from repro.errors import SimulationError, SweepPointError
from repro.testing.faults import FaultPlan, active_fault_plan, run_point_with_faults
from repro.gpu.arch import (
    ArchLike,
    ArchSpec,
    GpuArchitecture,
    TESLA_V100,
    canonical_arch_key,
    resolve_arch,
)
from repro.gpu.costmodel import CostModel
from repro.gpu.memory import GlobalMemory
from repro.cusync.optimizations import OptimizationFlags
from repro.cusync.policies import PolicyAssignment, PolicySpec
from repro.pipeline.executors import (
    ExecutionContext,
    PipelineResult,
    PolicyLike,
    check_calibrated_for,
    get_executor,
    scheme_name,
)
from repro.pipeline.graph import PipelineGraph

#: What a sweep point's policy axis accepts (``None`` for non-cusync points).
SweepPolicy = Union[None, str, PolicySpec, PolicyAssignment]


def run(
    graph: PipelineGraph,
    scheme: str = "cusync",
    policy: PolicyLike = "TileSync",
    optimizations: Optional[OptimizationFlags] = None,
    arch: ArchLike = TESLA_V100,
    cost_model: Optional[CostModel] = None,
    functional: bool = False,
    memory: Optional[GlobalMemory] = None,
    tensors: Optional[Dict[str, np.ndarray]] = None,
) -> PipelineResult:
    """Execute ``graph`` once under ``scheme``.

    ``policy`` and ``optimizations`` only apply to the ``cusync`` scheme;
    ``policy`` may be a family name, a
    :class:`~repro.cusync.policies.PolicySpec` or a per-edge
    :class:`~repro.cusync.policies.PolicyAssignment`; ``arch`` may be a
    registered architecture name, an
    :class:`~repro.gpu.arch.ArchSpec` or a raw
    :class:`~repro.gpu.arch.GpuArchitecture`;
    ``optimizations=None`` selects the automatic per-edge W/R/T flags
    (Section IV-C).  The graph is never mutated and its kernels are never
    rebuilt — run the same graph again under any other configuration.
    """
    ctx = ExecutionContext(
        arch=resolve_arch(arch),
        cost_model=cost_model,
        functional=functional,
        policy=policy,
        optimizations=optimizations,
        memory=memory,
        tensors=tensors,
    )
    return get_executor(scheme).run(graph, ctx)


def _policy_label(policy: SweepPolicy) -> str:
    if policy is None:
        return ""
    if isinstance(policy, str):
        return policy
    return policy.label()


@dataclass(frozen=True)
class SweepPoint:
    """One configuration of a sweep: ``(scheme, policy, arch)``.

    ``policy`` may be a family name, a
    :class:`~repro.cusync.policies.PolicySpec` or a full per-edge
    :class:`~repro.cusync.policies.PolicyAssignment`; ``arch`` may be a
    registered architecture name, an :class:`~repro.gpu.arch.ArchSpec` or
    a :class:`~repro.gpu.arch.GpuArchitecture` instance (specs and names
    are the picklable, registry-resolved forms); non-cusync schemes use
    ``policy=None``.  ``scheme`` is stored in its backend's lower-case
    spelling (``"CuSync"`` becomes ``"cusync"``, so both spellings share
    one cache and store key); an unknown scheme raises
    :class:`~repro.errors.GraphValidationError` here.

    ``optimizations`` optionally pins the cusync W/R/T flags instead of
    the automatic per-arch selection (``None``).  It only applies to the
    ``cusync`` scheme, and it is part of the point's cache identity: a
    pinned-flags point never shares a cache or store entry with the
    automatic-selection point, even when the selected flags coincide.
    """

    scheme: str
    policy: SweepPolicy
    arch: ArchLike
    optimizations: Optional[OptimizationFlags] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", scheme_name(self.scheme))

    def resolved_arch(self) -> GpuArchitecture:
        """The concrete architecture this point runs on."""
        return resolve_arch(self.arch)

    def label(self) -> str:
        policy = _policy_label(self.policy)
        suffix = f":{policy}" if policy else ""
        flags = ""
        if self.optimizations is not None and self.scheme == "cusync":
            flags = self.optimizations.suffix or "+none"
        return f"{self.scheme}{suffix}{flags}@{self.resolved_arch().name}"


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one sweep point, small enough to cross process boundaries."""

    scheme: str
    policy: SweepPolicy
    arch_name: str
    total_time_us: float
    total_wait_time_us: float
    kernel_durations_us: Tuple[Tuple[str, float], ...]
    #: Which graph of a multi-graph sweep produced this result (the graph's
    #: ``name`` when set, otherwise its position in the work list).
    graph_label: str = ""
    #: Whether this result was replayed from the session's sweep cache
    #: instead of simulated fresh (see :class:`Session`).  Diagnostic
    #: metadata: replayed results are bit-identical to fresh ones, so the
    #: flag is excluded from equality.
    cached: bool = field(default=False, compare=False)

    @property
    def ok(self) -> bool:
        """``True`` — counterpart of :attr:`SweepFailure.ok` for filtering."""
        return True

    @property
    def policy_label(self) -> str:
        return _policy_label(self.policy)


@dataclass(frozen=True)
class SweepFailure:
    """A sweep point that exhausted its attempts (``on_error="collect"``).

    Small, structured and picklable: the point itself, how many attempts
    were burned, the final exception's type and repr, the formatted
    traceback of the final attempt (empty for parent-side failures like a
    vanished worker), and the total wall time the point consumed.  Mixed
    into the result list at the point's position, so a collect-mode sweep
    is always position-aligned with its work list; filter with the ``ok``
    flag::

        results = session.sweep(work, on_error="collect", retries=2)
        good = [r for r in results if r.ok]
        bad = [r for r in results if not r.ok]
    """

    point: SweepPoint
    graph_label: str
    attempts: int
    error_type: str
    #: ``repr`` of the exception that failed the final attempt.
    error: str
    #: Formatted traceback of the final attempt ('' when the failure was
    #: detected parent-side, e.g. a worker process that died silently).
    traceback: str = field(default="", compare=False)
    #: Total wall-clock seconds spent across all attempts of this point.
    elapsed_s: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return False

    def label(self) -> str:
        try:
            return self.point.label()
        except Exception:
            return f"{self.point.scheme}@<unresolvable arch>"

    def describe(self) -> str:
        return (
            f"{self.graph_label or 'graph'}:{self.label()} failed after "
            f"{self.attempts} attempt(s) in {self.elapsed_s:.3f}s: "
            f"{self.error_type}: {self.error}"
        )


def _sweep_point_result(
    graph: PipelineGraph,
    point: SweepPoint,
    cost_model: CostModel,
    graph_label: str = "",
) -> SweepResult:
    """Evaluate one sweep point (always timing-only, never functional).

    ``cost_model`` is the session's model for the point's arch; serial
    and process sweeps pass the same one, so they agree bit for bit.
    """
    arch = resolve_arch(point.arch)
    ctx = ExecutionContext(
        arch=arch,
        cost_model=cost_model,
        functional=False,
        policy=point.policy if point.policy is not None else "TileSync",
        optimizations=point.optimizations if point.scheme == "cusync" else None,
    )
    result = get_executor(point.scheme).run(graph, ctx)
    trace = result.simulation.trace
    return SweepResult(
        scheme=point.scheme,
        policy=point.policy,
        arch_name=arch.name,
        total_time_us=result.total_time_us,
        total_wait_time_us=result.total_wait_time_us(),
        kernel_durations_us=tuple(
            (name, stats.duration_us) for name, stats in sorted(trace.kernels.items())
        ),
        graph_label=graph_label,
    )


# ----------------------------------------------------------------------
# Fault-tolerant evaluation machinery
# ----------------------------------------------------------------------
def check_sweep_options(
    mode: str, workers: Optional[int], timeout: Optional[float], retries: int, backoff: float
) -> None:
    """Raise :class:`SimulationError` for settings a sweep cannot honour, NaN included."""
    if mode not in ("serial", "process"):
        raise SimulationError(f"unknown sweep mode {mode!r}; choose 'serial' or 'process'")
    if workers is not None and workers < 1:
        raise SimulationError(f"workers must be positive, got {workers}")
    if retries < 0:
        raise SimulationError(f"retries must be non-negative, got {retries}")
    if timeout is not None and not 0.0 < timeout < math.inf:
        raise SimulationError(f"timeout must be finite and positive, got {timeout}")
    if not 0.0 <= backoff < math.inf:
        raise SimulationError(f"backoff must be finite and non-negative, got {backoff}")


def _replay(result: SweepResult, point: SweepPoint, graph_label: str) -> SweepResult:
    """``result`` replayed for ``point``: its policy spelling and graph label."""
    return replace(result, policy=point.policy, graph_label=graph_label, cached=True)


@dataclass(frozen=True)
class _RecoveryPolicy:
    """How :meth:`Session.sweep` handles a failing point (internal)."""

    timeout: Optional[float] = None
    retries: int = 0
    backoff: float = 0.05
    on_error: str = "raise"
    fault_plan: Optional[FaultPlan] = None

    @property
    def max_attempts(self) -> int:
        return self.retries + 1


@dataclass(frozen=True)
class _WorkerFailure:
    """A failure captured *inside* a worker, transported back as data.

    The worker formats the traceback and reprs the exception before
    pickling, so an unpicklable exception type raised by a cost model or
    kernel surfaces as the original traceback text instead of an opaque
    ``PicklingError`` in the parent.  The exception object itself rides
    along only when it pickles cleanly (so ``on_error="raise"`` can
    re-raise the original).
    """

    error_type: str
    error_repr: str
    traceback_text: str
    exception: Optional[BaseException] = None


class _PointFailure:
    """Internal carrier pairing a public SweepFailure with the original
    exception object (when transportable) for ``on_error="raise"``."""

    __slots__ = ("failure", "exception")

    def __init__(self, failure: SweepFailure, exception: Optional[BaseException]):
        self.failure = failure
        self.exception = exception


def _capture_worker_failure(exc: BaseException) -> _WorkerFailure:
    transportable: Optional[BaseException] = None
    try:
        pickle.loads(pickle.dumps(exc))
        transportable = exc
    except Exception:
        transportable = None
    return _WorkerFailure(
        error_type=type(exc).__name__,
        error_repr=repr(exc),
        traceback_text=traceback_module.format_exc(),
        exception=transportable,
    )


def _validate_sweep_result(result: object) -> SweepResult:
    """Reject corrupt result payloads (NaN/negative times, wrong type).

    The simulator only ever produces finite non-negative times, so a
    payload that fails these checks was damaged in transit (or by an
    injected ``corrupt_result`` fault) and must be retried, never cached.
    """
    if not isinstance(result, SweepResult):
        raise SimulationError(
            f"sweep worker returned {type(result).__name__}, expected SweepResult"
        )
    if not math.isfinite(result.total_time_us) or result.total_time_us < 0.0:
        raise SimulationError(
            f"corrupt sweep result: total_time_us={result.total_time_us!r}"
        )
    if not math.isfinite(result.total_wait_time_us) or result.total_wait_time_us < 0.0:
        raise SimulationError(
            f"corrupt sweep result: total_wait_time_us={result.total_wait_time_us!r}"
        )
    for name, duration in result.kernel_durations_us:
        if not math.isfinite(duration) or duration < 0.0:
            raise SimulationError(
                f"corrupt sweep result: kernel {name!r} duration {duration!r}"
            )
    return result


def _backoff_delay(base: float, position: int, attempt: int) -> float:
    """Jittered exponential backoff before retry ``attempt`` (1-based).

    Deterministic: the jitter is drawn from an RNG seeded on the point's
    position and the attempt number, so reruns of a failing sweep pause
    identically (reproducible chaos tests) while distinct points still
    spread their retries apart.
    """
    if base <= 0.0 or attempt <= 0:
        return 0.0
    rng = random.Random((position * 1_000_003) ^ attempt)
    return base * (2 ** (attempt - 1)) * (0.5 + rng.random())


def _sweep_worker(payload) -> Union[SweepResult, _WorkerFailure]:
    """Top-level worker entry point (must be picklable by name).

    Applies the payload's fault plan (chaos testing) and catches every
    evaluation failure, returning it as a :class:`_WorkerFailure` — the
    parent decides whether to retry, collect or raise.
    """
    graph, point, cost_model, graph_label, fault_plan, position, attempt = payload
    try:
        return run_point_with_faults(
            fault_plan,
            position,
            attempt,
            lambda: _sweep_point_result(
                graph, point, cost_model=cost_model, graph_label=graph_label
            ),
            in_worker_process=True,
        )
    except Exception as exc:
        return _capture_worker_failure(exc)


# ----------------------------------------------------------------------
# Picklability diagnosis for the process mode
# ----------------------------------------------------------------------
def _picklable(value) -> bool:
    try:
        pickle.dumps(value)
    except Exception:
        return False
    return True


def _closure_culprit(graph: PipelineGraph) -> Optional[str]:
    """Human-readable description of what keeps ``graph`` off the process pool."""
    if _picklable(graph):
        return None
    for edge in graph.edges:
        if edge.range_map is not None and not _picklable(edge.range_map):
            map_name = getattr(edge.range_map, "__qualname__", repr(edge.range_map))
            return (
                f"edge {edge.producer!r} -> {edge.consumer!r} carries the "
                f"closure range map {map_name!r}"
            )
    for stage in graph.stages:
        if not _picklable(stage.kernel):
            return f"stage {stage.name!r} holds an unpicklable kernel"
    return "the graph object itself cannot be pickled"


def _evict_graph_entries(session_ref: "weakref.ref[Session]", token: int) -> None:
    """Drop a dead token-keyed graph's sweep-cache entries (finalize callback).

    Only graphs *without* a structural fingerprint (closure range maps,
    ad-hoc callables) key by per-process token; their entries are keyed by
    object identity, so once the graph dies they could never be hit again
    and are evicted.  Fingerprint-keyed entries are deliberately **not**
    evicted on graph death: an equal graph rebuilt later replays them —
    that sharing is the point of structural keying (use
    :meth:`Session.clear_sweep_cache` to bound memory).  The callback
    holds the session weakly so a finalizer on a long-lived graph does not
    pin it.
    """
    session = session_ref()
    if session is not None:
        cache = session._sweep_cache
        dead = ("token", token)
        for key in [key for key in cache if key[0] == dead]:
            del cache[key]


# ----------------------------------------------------------------------
# Sweep-grid helpers
# ----------------------------------------------------------------------
def sweep_policies(
    graph: PipelineGraph,
    families: Sequence[Union[str, PolicySpec]] = ("TileSync", "RowSync"),
    arches: Sequence[ArchLike] = (TESLA_V100,),
    scheme: str = "cusync",
    mixed: bool = False,
) -> List[Tuple[PipelineGraph, SweepPoint]]:
    """Build ``(graph, SweepPoint)`` work covering a policy grid.

    With ``mixed=False`` (the default) one uniform point per family is
    produced.  With ``mixed=True`` the full cartesian product of
    ``families`` over the graph's edges is generated as per-edge
    :class:`~repro.cusync.policies.PolicyAssignment` grids — the uniform
    points are the product's diagonal, so they are always included.  The
    grid has ``len(families) ** len(edges)`` points per arch; it is the
    caller's job to keep that tractable (prune ``families`` or sweep a
    subgraph).  Concatenate the work of several graphs and hand it to
    :meth:`Session.sweep` for a multi-graph batch::

        work = sweep_policies(mlp, ("TileSync", "RowSync"), mixed=True) \\
             + sweep_policies(attention, ("TileSync", "StridedTileSync"))
        results = session.sweep(work, mode="serial")
    """
    specs = [PolicySpec.coerce(family) for family in families]
    edges = [(edge.producer, edge.consumer, edge.tensor) for edge in graph.edges]
    work: List[Tuple[PipelineGraph, SweepPoint]] = []
    for arch in arches:
        if not mixed or not edges:
            for spec in specs:
                work.append((graph, SweepPoint(scheme=scheme, policy=spec, arch=arch)))
            continue
        for combination in itertools.product(specs, repeat=len(edges)):
            uniform = all(spec == combination[0] for spec in combination)
            if uniform:
                policy: SweepPolicy = combination[0]
            else:
                policy = PolicyAssignment(
                    default=combination[0],
                    edges={key: spec for key, spec in zip(edges, combination)},
                )
            work.append((graph, SweepPoint(scheme=scheme, policy=policy, arch=arch)))
    return work


def sweep_archs(
    graphs: Union[PipelineGraph, Sequence[PipelineGraph]],
    arches: Sequence[ArchLike] = ("V100", "A100"),
    policies: Sequence[Union[str, PolicySpec, PolicyAssignment]] = ("TileSync",),
    schemes: Sequence[str] = ("cusync",),
) -> List[Tuple[PipelineGraph, SweepPoint]]:
    """Build ``(graph, SweepPoint)`` work covering an architecture grid.

    For every graph, the full ``arch x scheme (x policy)`` product is
    generated; non-cusync schemes contribute one point per architecture
    (they have no policy axis).  Architecture names and
    :class:`~repro.gpu.arch.ArchSpec` values are kept as specs inside the
    points — hashable and picklable, resolving against the registry in
    whatever process evaluates them — while raw
    :class:`~repro.gpu.arch.GpuArchitecture` instances pass through for
    the legacy path.  Feed the work to :meth:`Session.sweep` in either
    mode::

        work = sweep_archs([mlp, attention], ("V100", "A100", "H100-SXM"),
                           policies=("TileSync", "RowSync"),
                           schemes=("streamsync", "cusync"))
        results = session.sweep(work, mode="serial")
    """
    graph_list = [graphs] if isinstance(graphs, PipelineGraph) else list(graphs)
    arch_axis: List[ArchLike] = [
        arch if isinstance(arch, GpuArchitecture) else ArchSpec.coerce(arch)
        for arch in arches
    ]
    work: List[Tuple[PipelineGraph, SweepPoint]] = []
    for graph in graph_list:
        for arch in arch_axis:
            for scheme in map(scheme_name, schemes):
                if scheme == "cusync":
                    for policy in policies:
                        work.append(
                            (graph, SweepPoint(scheme=scheme, policy=policy, arch=arch))
                        )
                else:
                    work.append((graph, SweepPoint(scheme=scheme, policy=None, arch=arch)))
    return work


def graph_labels(work: Iterable[Tuple[PipelineGraph, object]]) -> Dict[int, str]:
    """One stable, *unique* label per distinct graph of a work list.

    Keyed by ``id(graph)``: the graph's ``name`` when set (suffixed with
    ``#n`` if two distinct graphs share a name), otherwise its position
    among the work list's distinct graphs — results of a multi-graph
    sweep stay attributable either way.
    """
    labels: Dict[int, str] = {}
    taken: set = set()
    ordinal = 0
    for graph, _ in work:
        if id(graph) in labels:
            continue
        label = graph.name if graph.name else f"graph{ordinal}"
        if label in taken:
            suffix = 2
            while f"{label}#{suffix}" in taken:
                suffix += 1
            label = f"{label}#{suffix}"
        labels[id(graph)] = label
        taken.add(label)
        ordinal += 1
    return labels


class Session:
    """Reusable execution context that memoizes sweep results.

    A session binds no state to any graph.  Each :meth:`run` call chooses
    whether it is functional, so one session may alternate functional and
    timing runs of the same graph.  ``cost_model`` calibrates the runs on
    the session's architecture (:meth:`cost_model`); it must be priced for
    that architecture (:class:`~repro.errors.ModelConfigError` otherwise),
    and every other architecture runs on its default model.

    :meth:`sweep` keeps a **result cache**: the simulator is deterministic
    and sweep points are timing only (no per-run memory or tensors), so a
    point's :class:`SweepResult` is fully determined by its trace key —
    the tuple ``(graph, resolved arch key, scheme, resolved policy assignment)``,
    where the graph is identified by its **structural fingerprint**
    (:meth:`~repro.pipeline.graph.PipelineGraph.structural_fingerprint`),
    so equal graphs — rebuilt in this process or built in another one —
    share entries (graphs without a portable fingerprint fall back to
    per-process identity tokens), and the policy lowers through
    :meth:`~repro.cusync.policies.PolicyAssignment.coerce` so equivalent
    spellings (``"TileSync"``, ``PolicySpec("TileSync")``, a uniform
    assignment) share one entry.  Duplicate points within one work list
    simulate once, and repeated sweeps over the same graphs replay cached
    results — bit-identical apart from the :attr:`SweepResult.cached` flag
    and the requested policy spelling/graph label.  Disable with
    ``Session(sweep_cache=False)`` (or per call, ``sweep(..., cache=False)``)
    for memory-constrained runs; :attr:`sweep_cache_hits` /
    :attr:`sweep_cache_misses` count replays vs simulations.

    ``result_store`` adds a **persistent tier** under the in-memory cache
    (see :mod:`repro.service.store`): points whose trace key is fully
    portable (:meth:`sweep_store_key`) consult the store on a cache miss
    and write fresh successful results through to it, so a brand-new
    process replays a previously swept grid bit-identically with zero
    simulations.  Service fronts walk the same two tiers through
    :meth:`recall` and :meth:`resolve`; a session holds one store
    (:meth:`attach_store`), and a session with its own ``cost_model``
    holds none: store keys carry no calibration, so its results would
    replay as default-calibration ones.  Store hits count in
    :attr:`sweep_store_hits`; failures are never persisted, and store
    errors (corrupt entries, I/O) degrade to simulation, counted in
    :attr:`sweep_store_errors`.
    """

    def __init__(
        self,
        arch: ArchLike = TESLA_V100,
        cost_model: Optional[CostModel] = None,
        sweep_cache: bool = True,
        result_store: Optional["SweepResultStoreLike"] = None,
    ) -> None:
        #: The session's default architecture, always resolved to a concrete
        #: instance (names and :class:`~repro.gpu.arch.ArchSpec` values are
        #: accepted and looked up in the registry).
        self.arch = resolve_arch(arch)
        if cost_model is not None:
            check_calibrated_for(cost_model, self.arch)
        #: The session's own calibration for :attr:`arch` (``None``: default).
        self._cost_model = cost_model
        #: Registry state the cached results were keyed against; when an
        #: architecture or policy registration changes what a spec resolves
        #: to, the results are flushed so none replays for a new meaning.
        self._registry_generation = registry_generation()
        #: Sweep-result cache: trace key -> SweepResult (see class docs).
        self._sweep_cache_enabled = bool(sweep_cache)
        self._sweep_cache: Dict[Tuple, SweepResult] = {}
        #: Optional persistent result tier consulted under the in-memory
        #: cache (see :mod:`repro.service.store`): any object with
        #: ``get(key) -> Optional[SweepResult]`` / ``put(key, result)``.
        #: Only points with a fully portable trace key (structural graph
        #: fingerprint + registry-addressed arch) use it; lookups and
        #: writes are best-effort and never fail a sweep.
        self.result_store: Optional["SweepResultStoreLike"] = None
        self.attach_store(result_store)
        #: Fallback per-graph tokens for graphs *without* a structural
        #: fingerprint (closure range maps).  Weakly keyed, and tokens are
        #: never reused, so a dead graph's stale cache entries can never
        #: be hit by a new graph that recycles its id().
        self._graph_tokens: "weakref.WeakKeyDictionary[PipelineGraph, int]" = (
            weakref.WeakKeyDictionary()
        )
        self._graph_token_counter = itertools.count()
        #: How many sweep points were replayed from / simulated into the
        #: result cache over the session's lifetime, plus how many were
        #: replayed from / persisted into the result store.
        self.sweep_cache_hits = 0
        self.sweep_cache_misses = 0
        self.sweep_store_hits = 0
        self.sweep_store_errors = 0

    def _check_registry_generation(self) -> None:
        generation = registry_generation()
        if generation != self._registry_generation:
            self._registry_generation = generation
            # Arch and policy keys may resolve differently now; cached sweep
            # results keyed on the old resolutions must not be replayed.
            self._sweep_cache.clear()

    # ------------------------------------------------------------------
    # Sweep-result cache
    # ------------------------------------------------------------------
    def clear_sweep_cache(self) -> None:
        """Drop every cached sweep result."""
        self._sweep_cache.clear()

    @property
    def sweep_cache_size(self) -> int:
        return len(self._sweep_cache)

    def _graph_token(self, graph: PipelineGraph) -> int:
        token = self._graph_tokens.get(graph)
        if token is None:
            token = next(self._graph_token_counter)
            self._graph_tokens[graph] = token
            # When a token-keyed graph dies its entries can never be hit
            # again; evict them so sessions sweeping many transient
            # unfingerprintable graphs don't accumulate unreachable results.
            weakref.finalize(graph, _evict_graph_entries, weakref.ref(self), token)
        return token

    def _graph_key(self, graph: PipelineGraph) -> Tuple:
        """The graph component of a trace key.

        Graphs with a structural fingerprint key by *content*: equal
        graphs — rebuilt in this process or built in another one — share
        cache (and result-store) entries.  Graphs without one (closure
        range maps, ad-hoc callables) fall back to a per-process,
        never-reused token whose entries are evicted when the graph dies.
        """
        digest = graph.structural_fingerprint()
        if digest is not None:
            return ("graph", digest)
        return ("token", self._graph_token(graph))

    def _sweep_cache_key(self, graph: PipelineGraph, point: SweepPoint) -> Optional[Tuple]:
        """The point's trace key, or ``None`` when it cannot be cached.

        The graph axis keys by structural fingerprint when it has one
        (see :meth:`_graph_key`); the arch axis keys through
        :func:`canonical_arch_key` (a registered spec, else the instance
        itself by value); the policy axis lowers to a
        :class:`~repro.cusync.policies.PolicyAssignment` so equivalent
        spellings share an entry.  Non-cusync schemes have no policy axis.
        """
        try:
            if point.scheme == "cusync" and point.policy is not None:
                policy_key = PolicyAssignment.coerce(point.policy)
            else:
                policy_key = None
            arch_key = canonical_arch_key(point.arch if point.arch is not None else self.arch)
        except Exception:
            return None
        key = (self._graph_key(graph), arch_key, point.scheme, policy_key)
        if point.scheme == "cusync" and point.optimizations is not None:
            # Pinned W/R/T flags extend the key; automatic selection keeps
            # the historical four-tuple so existing entries stay addressable.
            key += (point.optimizations,)
        return key

    def sweep_store_key(self, graph: PipelineGraph, point: SweepPoint) -> Optional[Tuple]:
        """The point's *persistent* trace key, or ``None`` when it has none.

        A store key is the fully portable twin of the in-memory trace key:
        nested tuples of primitives only, identical in every process, so it
        can address entries of an on-disk result store
        (:class:`repro.service.store.SweepResultStore`).  Points key by
        the graph's structural fingerprint, the canonicalized
        registry-addressed architecture, the scheme, and the coerced
        policy assignment.  Points without a portable identity — graphs
        with closure range maps, raw unregistered
        :class:`~repro.gpu.arch.GpuArchitecture` instances, exotic policy
        parameters — return ``None`` and simply bypass the store tier.
        """
        from repro.pipeline.structural import UnportableValueError, canonicalize

        digest = graph.structural_fingerprint()
        if digest is None:
            return None
        try:
            if point.scheme == "cusync" and point.policy is not None:
                policy_key = canonicalize(PolicyAssignment.coerce(point.policy))
            else:
                policy_key = ("none",)
            arch_key = canonical_arch_key(point.arch if point.arch is not None else self.arch)
            if not isinstance(arch_key, ArchSpec):
                return None  # unregistered instance: per-process identity only
            arch_canonical = canonicalize(arch_key)
        except Exception:
            return None
        key = ("sweep-result/v1", digest, arch_canonical, point.scheme, policy_key)
        if point.scheme == "cusync" and point.optimizations is not None:
            key += (canonicalize(point.optimizations),)
        return key

    def sweep_trace_key(self, graph: PipelineGraph, point: SweepPoint) -> Optional[Tuple]:
        """The point's in-memory trace key, or ``None`` when it has none.

        Two points with equal trace keys replay the same result; service
        fronts use this as the identity under which duplicate in-flight
        points coalesce.  The registry generation is checked first, so a
        key handed out is valid against the current registries.  Unlike
        :meth:`sweep_store_key` the trace key exists for most points (it
        falls back to per-process graph tokens and to unregistered arch
        instances) — ``None`` means the point is uncacheable and every
        submission must evaluate independently.
        """
        self._check_registry_generation()
        return self._sweep_cache_key(graph, point)

    def recall(self, key: Optional[Tuple]) -> Optional[SweepResult]:
        """The memory tier: the entry cached under ``key`` (from
        :meth:`sweep_trace_key`; ``None`` misses), or ``None``.  No counter moves."""
        return self._sweep_cache.get(key)

    def resolve(
        self,
        graph: PipelineGraph,
        point: SweepPoint,
        key: Optional[Tuple],
        evaluate: Callable[[PipelineGraph, SweepPoint], Union[SweepResult, SweepFailure]],
    ) -> Tuple[Union[SweepResult, SweepFailure], str]:
        """Resolve a point below the memory tier: ``(result, "store")`` on a
        store hit, else ``(evaluate(graph, point), "simulated")``.  ``key``
        is its trace key; a result goes into memory when the session caches
        sweeps, a fresh one also into the store, and a failure into neither.
        """
        if not self._sweep_cache_enabled:
            key = None
        store_key, stored = self._store_read(graph, point, key)
        if stored is not None:
            return stored, "store"
        result = evaluate(graph, point)
        if isinstance(result, SweepResult):
            self._install(key, store_key, result)
        elif not isinstance(result, SweepFailure):
            raise SimulationError(
                f"evaluate returned a {type(result).__name__}, not a SweepResult or SweepFailure"
            )
        return result, "simulated"

    def _store_read(
        self, graph: PipelineGraph, point: SweepPoint, key: Optional[Tuple]
    ) -> Tuple[Optional[Tuple], Optional[SweepResult]]:
        """The point's store key (``None``: no store or no portable key) and
        its stored result (``None``: a miss or a store error).  A hit goes
        into memory under ``key``, so later lookups skip the store."""
        store_key = None if self.result_store is None else self.sweep_store_key(graph, point)
        if store_key is None:
            return None, None
        try:
            stored = self.result_store.get(store_key)
        except Exception:
            self.sweep_store_errors += 1
            return store_key, None
        if not isinstance(stored, SweepResult):
            return store_key, None
        self.sweep_store_hits += 1
        self._install(key, None, stored)
        return store_key, stored

    def _install(
        self, key: Optional[Tuple], store_key: Optional[Tuple], result: SweepResult
    ) -> None:
        """Put ``result`` into memory under ``key`` and write it through to
        the store under ``store_key`` (best-effort); ``None`` skips a tier."""
        if key is not None:
            self._sweep_cache[key] = result
        if store_key is not None:
            try:
                self.result_store.put(store_key, result)
            except Exception:
                self.sweep_store_errors += 1

    def attach_store(self, store: Optional["SweepResultStoreLike"]) -> None:
        """Attach ``store``; ``None`` or the session's own store is a no-op.

        A different store raises :class:`SimulationError` naming both, and
        so does any store on a session with its own ``cost_model``: store
        keys carry no calibration.
        """
        if store is None or store is self.result_store:
            return
        if self._cost_model is not None:
            raise SimulationError(
                f"a session with its own cost model cannot hold result store {store!r}: "
                "store keys carry no calibration, so its results would replay "
                "as default-calibration ones"
            )
        if self.result_store is not None:
            raise SimulationError(
                f"session already holds result store {self.result_store!r}; "
                f"cannot attach a second store {store!r}"
            )
        self.result_store = store

    # ------------------------------------------------------------------
    def cost_model(self, arch: Optional[ArchLike] = None) -> CostModel:
        """The cost model runs on ``arch`` use (default: the session arch).

        The session's own model for its arch, else ``arch``'s default.
        """
        resolved = self.arch if arch is None else resolve_arch(arch)
        if self._cost_model is not None and resolved == self.arch:
            return self._cost_model
        return CostModel(arch=resolved)

    # ------------------------------------------------------------------
    def run(
        self,
        graph: PipelineGraph,
        scheme: str = "cusync",
        policy: PolicyLike = "TileSync",
        optimizations: Optional[OptimizationFlags] = None,
        arch: Optional[ArchLike] = None,
        functional: bool = False,
        memory: Optional[GlobalMemory] = None,
        tensors: Optional[Dict[str, np.ndarray]] = None,
    ) -> PipelineResult:
        """Execute ``graph`` once on :meth:`cost_model` for ``arch``.

        ``functional=True`` (inputs in ``tensors=``) holds for this run only.
        """
        resolved = resolve_arch(arch) if arch is not None else self.arch
        ctx = ExecutionContext(
            arch=resolved,
            cost_model=self.cost_model(resolved),
            functional=functional,
            policy=policy,
            optimizations=optimizations,
            memory=memory,
            tensors=tensors,
        )
        return get_executor(scheme).run(graph, ctx)

    # ------------------------------------------------------------------
    def sweep_point(self, graph: PipelineGraph, point: SweepPoint) -> SweepResult:
        """Evaluate one ``(graph, point)`` through the sweep caches.

        The single-point form of :meth:`sweep` (serial mode,
        ``on_error="raise"``): repeated evaluations of the same trace key
        replay from the in-memory cache (and the result store, when one
        is attached) instead of re-simulating.  Request-level serving
        (:mod:`repro.serving`) looks up each batch shape here until the
        session returns it from its cache, then charges the shape's later
        iterations from a per-run memo.
        """
        return self.sweep([(graph, point)], mode="serial")[0]

    # ------------------------------------------------------------------
    def sweep(
        self,
        graph_or_work: Union[PipelineGraph, Iterable[Tuple[PipelineGraph, SweepPoint]]],
        policies: Sequence[Union[str, PolicySpec, PolicyAssignment]] = ("TileSync",),
        arches: Optional[Sequence[GpuArchitecture]] = None,
        schemes: Sequence[str] = ("cusync",),
        workers: Optional[int] = None,
        mode: str = "serial",
        cache: Optional[bool] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.05,
        on_error: str = "raise",
    ) -> List[Union[SweepResult, "SweepFailure"]]:
        """Evaluate every point of a sweep, in point order.

        ``graph_or_work`` is either one graph — expanded into the classic
        ``(scheme, policy, arch)`` product using ``policies`` / ``arches``
        / ``schemes`` — or an explicit iterable of ``(graph, SweepPoint)``
        pairs, which may mix several graphs and per-edge
        :class:`~repro.cusync.policies.PolicyAssignment` grids in one call
        (see :func:`sweep_policies`).  Non-cusync schemes ignore the policy
        axis (they contribute one point per arch).

        ``mode`` selects how points execute — ``"serial"`` (the default)
        or ``"process"``.  Results are bit-identical across modes: both
        paths evaluate points through the same :func:`_sweep_point_result`,
        each point on an independent per-run binding (worker processes on
        pickled copies).
        ``workers`` caps the process pool's size (a positive count; by
        default ``min(8, points)``).

        ``cache`` overrides the session's sweep-result cache for this call
        (``None`` keeps the session default): with caching on, points whose
        trace key — ``(graph, resolved arch, scheme, resolved policy)`` —
        was already simulated (earlier in this work list or in a previous
        sweep of this session) are *replayed* instead of re-simulated;
        replays are bit-identical apart from :attr:`SweepResult.cached` and
        carry the requested policy spelling / graph label.  Only successful
        results are ever cached — a failing point re-simulates on the next
        sweep instead of replaying a poisoned entry.

        **Fault tolerance.**  ``retries`` re-evaluates a failing point up
        to that many extra times, pausing a deterministic jittered
        exponential backoff (base ``backoff`` seconds) between attempts.
        ``timeout`` bounds each attempt's wall-clock seconds: in process
        mode a timed-out point's worker is killed (the pool is recycled and
        other in-flight points requeued without charge); in serial mode
        the check is cooperative — the attempt's result is discarded
        once it finally returns.  A worker process that dies
        (``BrokenProcessPool``) respawns the pool; every point that was in
        flight is charged one attempt and requeued.  ``on_error`` decides
        what happens to a point that exhausts its attempts:

        ``"raise"`` (default)
            The original exception is re-raised (with the worker traceback
            attached as a note when it crossed a process boundary); points
            whose exception cannot be transported raise
            :class:`~repro.errors.SweepPointError` carrying the original
            traceback text.
        ``"collect"``
            The point surfaces as a structured :class:`SweepFailure` at its
            position in the result list.
        ``"skip"``
            The point is silently dropped from the result list.

        Sweeps measure timing only — functional simulation needs per-run
        input tensors and is not part of the point grid; use :meth:`run`
        with ``functional=True, tensors=...`` for functional checks.
        """
        check_sweep_options(mode, workers, timeout, retries, backoff)
        if on_error not in ("raise", "collect", "skip"):
            raise SimulationError(
                f"unknown on_error policy {on_error!r}; choose 'raise', 'collect' or 'skip'"
            )
        recovery = _RecoveryPolicy(
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            on_error=on_error,
            fault_plan=active_fault_plan(),
        )
        work = self._normalize_work(graph_or_work, policies, arches, schemes)
        labels = graph_labels(work)
        use_cache = self._sweep_cache_enabled if cache is None else bool(cache)
        if not use_cache:
            outputs = self._sweep_evaluate(
                work, labels, workers, mode, recovery, list(range(len(work)))
            )
            return self._finalize_outputs(outputs, recovery)
        # Flush stale entries before consulting the cache: a registry change
        # may have re-pointed arch names at different architectures.
        self._check_registry_generation()

        # Partition the work into cache hits, in-flight duplicates of an
        # earlier miss in this same work list, and fresh points.  Only the
        # fresh points are simulated (by whichever mode applies); hits and
        # duplicates are replayed with the requested policy spelling and
        # graph label.  Fault-plan positions refer to the *original* work
        # list, so injected faults target the same points whether or not
        # the cache absorbed their neighbours.
        outputs: List[object] = [None] * len(work)
        pending: List[Tuple[PipelineGraph, SweepPoint]] = []
        pending_keys: List[Tuple[Optional[Tuple], Optional[Tuple]]] = []  # (trace, store)
        pending_targets: List[int] = []
        pending_by_key: Dict[Tuple, int] = {}
        duplicates: List[Tuple[int, int]] = []  # (work position, pending position)
        for position, (graph, point) in enumerate(work):
            key = self._sweep_cache_key(graph, point)
            store_key = None
            if key is not None:
                hit = self.recall(key)
                if hit is not None:
                    self.sweep_cache_hits += 1
                    outputs[position] = _replay(hit, point, labels[id(graph)])
                    continue
                in_flight = pending_by_key.get(key)
                if in_flight is not None:
                    self.sweep_cache_hits += 1
                    duplicates.append((position, in_flight))
                    continue
                store_key, stored = self._store_read(graph, point, key)
                if stored is not None:
                    outputs[position] = _replay(stored, point, labels[id(graph)])
                    continue
                pending_by_key[key] = len(pending)
            self.sweep_cache_misses += 1
            pending.append((graph, point))
            pending_keys.append((key, store_key))
            pending_targets.append(position)
        fresh = (
            self._sweep_evaluate(pending, labels, workers, mode, recovery, pending_targets)
            if pending
            else []
        )
        for target, (key, store_key), result in zip(pending_targets, pending_keys, fresh):
            outputs[target] = result
            # Failed (or aborted) points are never cached or persisted: the
            # next sweep re-simulates them instead of replaying a poisoned
            # entry.
            if isinstance(result, SweepResult):
                self._install(key, store_key, result)
        for position, pending_position in duplicates:
            graph, point = work[position]
            source = fresh[pending_position]
            if isinstance(source, SweepResult):
                outputs[position] = _replay(source, point, labels[id(graph)])
            elif isinstance(source, _PointFailure):
                # The one evaluation this duplicate coalesced onto failed;
                # the duplicate shares its fate (with its own spelling).
                outputs[position] = _PointFailure(
                    replace(source.failure, point=point, graph_label=labels[id(graph)]),
                    source.exception,
                )
        return self._finalize_outputs(outputs, recovery)

    def _finalize_outputs(
        self, outputs: List[object], recovery: _RecoveryPolicy
    ) -> List[Union[SweepResult, SweepFailure]]:
        """Apply the ``on_error`` policy to the assembled point outcomes."""
        finalized: List[Union[SweepResult, SweepFailure]] = []
        for outcome in outputs:
            if isinstance(outcome, _PointFailure):
                if recovery.on_error == "raise":
                    self._raise_point_failure(outcome)
                if recovery.on_error == "collect":
                    finalized.append(outcome.failure)
                # "skip": drop the point entirely.
            elif outcome is not None:
                finalized.append(outcome)
            # None outcomes only exist when a raise-mode abort cut the
            # sweep short — a _PointFailure is guaranteed to be present
            # and raise before this list is returned.
        return finalized

    @staticmethod
    def _raise_point_failure(outcome: _PointFailure) -> None:
        failure = outcome.failure
        exception = outcome.exception
        if exception is not None:
            if failure.traceback and exception.__traceback__ is None:
                # The exception crossed a process boundary (pickling drops
                # the traceback); keep the worker's formatted traceback
                # visible on the re-raised exception.
                note = "--- worker traceback ---\n" + failure.traceback.rstrip()
                add_note = getattr(exception, "add_note", None)
                if add_note is not None:
                    add_note(note)
            raise exception
        raise SweepPointError(
            f"sweep point {failure.label()} failed after {failure.attempts} "
            f"attempt(s): {failure.error_type}: {failure.error}",
            point_label=failure.label(),
            attempts=failure.attempts,
            error_type=failure.error_type,
            traceback_text=failure.traceback,
        )

    def _sweep_evaluate(
        self,
        work: Sequence[Tuple[PipelineGraph, SweepPoint]],
        labels: Dict[int, str],
        workers: Optional[int],
        mode: str,
        recovery: _RecoveryPolicy,
        positions: Sequence[int],
    ) -> List[object]:
        """Simulate every point of ``work`` under the selected mode.

        ``positions`` maps each work item back to its position in the
        caller's original work list — fault plans and backoff jitter key on
        original positions, so cache hits absorbing neighbouring points
        never shift which points a chaos plan targets.  Returns, per point,
        a :class:`SweepResult`, an internal ``_PointFailure`` (attempts
        exhausted) or ``None`` (not evaluated because a raise-mode abort
        cut the sweep short).
        """
        if mode == "serial":
            return self._sweep_serial(work, labels, recovery, positions)
        culprits = self._pickle_culprits(work)
        if culprits:
            raise SimulationError(
                "Session.sweep(mode='process') needs picklable graphs, but "
                + "; ".join(culprits)
                + ". Sweep closure-carrying graphs with mode='serial'."
            )
        return self._sweep_processes(work, labels, workers, recovery, positions)

    # ------------------------------------------------------------------
    def _normalize_work(
        self,
        graph_or_work,
        policies,
        arches,
        schemes,
    ) -> List[Tuple[PipelineGraph, SweepPoint]]:
        if isinstance(graph_or_work, PipelineGraph):
            return sweep_archs(
                graph_or_work, arches if arches is not None else (self.arch,), policies, schemes
            )
        work = []
        for item in graph_or_work:
            graph, point = item
            if not isinstance(graph, PipelineGraph) or not isinstance(point, SweepPoint):
                raise SimulationError(
                    "Session.sweep work items must be (PipelineGraph, SweepPoint) "
                    f"pairs, got {item!r}"
                )
            work.append((graph, point))
        return work

    def _pickle_culprits(self, work: Sequence[Tuple[PipelineGraph, SweepPoint]]) -> List[str]:
        culprits: List[str] = []
        seen: set = set()
        for graph, _ in work:
            if id(graph) in seen:
                continue
            seen.add(id(graph))
            culprit = _closure_culprit(graph)
            if culprit is not None:
                culprits.append(culprit)
        return culprits

    def _evaluate_with_recovery(
        self,
        graph: PipelineGraph,
        point: SweepPoint,
        graph_label: str,
        recovery: _RecoveryPolicy,
        position: int,
    ) -> object:
        """Evaluate one point in-process, honouring retries/backoff/timeout.

        The timeout is cooperative here (an in-process evaluation cannot be
        killed): an attempt that overruns is discarded after the fact and
        the point is retried — or failed — exactly as if the attempt had
        raised.
        """
        cost_model = self.cost_model(point.arch)

        def evaluate_once() -> SweepResult:
            return _sweep_point_result(
                graph, point, cost_model=cost_model, graph_label=graph_label
            )

        started = time.monotonic()
        last_exception: Optional[BaseException] = None
        last_traceback = ""
        for attempt in range(recovery.max_attempts):
            if attempt:
                time.sleep(_backoff_delay(recovery.backoff, position, attempt))
            try:
                attempt_start = time.monotonic()
                raw = run_point_with_faults(
                    recovery.fault_plan, position, attempt, evaluate_once
                )
                attempt_elapsed = time.monotonic() - attempt_start
                result = _validate_sweep_result(raw)
            except Exception as exc:
                last_exception = exc
                last_traceback = traceback_module.format_exc()
                continue
            if recovery.timeout is not None and attempt_elapsed > recovery.timeout:
                last_exception = TimeoutError(
                    f"sweep point attempt took {attempt_elapsed:.3f}s "
                    f"(timeout={recovery.timeout}s); result discarded"
                )
                last_traceback = ""
                continue
            return result
        failure = SweepFailure(
            point=point,
            graph_label=graph_label,
            attempts=recovery.max_attempts,
            error_type=type(last_exception).__name__,
            error=repr(last_exception),
            traceback=last_traceback,
            elapsed_s=time.monotonic() - started,
        )
        return _PointFailure(failure, last_exception)

    def _sweep_serial(
        self,
        work: Sequence[Tuple[PipelineGraph, SweepPoint]],
        labels: Dict[int, str],
        recovery: _RecoveryPolicy,
        positions: Sequence[int],
    ) -> List[object]:
        outputs: List[object] = []
        for (graph, point), position in zip(work, positions):
            outcome = self._evaluate_with_recovery(
                graph, point, labels[id(graph)], recovery, position
            )
            outputs.append(outcome)
            if isinstance(outcome, _PointFailure) and recovery.on_error == "raise":
                # Fail fast: the caller re-raises this failure, so the
                # remaining points would be wasted work.
                outputs.extend([None] * (len(work) - len(outputs)))
                break
        return outputs

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Kill a pool's worker processes and discard the pool.

        ``shutdown`` alone would join workers — a worker wedged on a hung
        point would block forever — so the workers are killed first; the
        join is then immediate (the pool's management thread notices the
        dead workers and winds itself down), which lets the executor
        release its pipes in an orderly way instead of tripping over them
        at interpreter exit.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:
                pass
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            # A pool broken mid-shutdown can raise from its own cleanup;
            # the workers are already dead, which is all that matters.
            pass

    def _sweep_processes(
        self,
        work: Sequence[Tuple[PipelineGraph, SweepPoint]],
        labels: Dict[int, str],
        workers: Optional[int],
        recovery: _RecoveryPolicy,
        positions: Sequence[int],
    ) -> List[object]:
        n = len(work)
        base = [
            (graph, point, self.cost_model(point.arch), labels[id(graph)], position)
            for (graph, point), position in zip(work, positions)
        ]
        max_workers = workers if workers is not None else min(8, n)

        pool = ProcessPoolExecutor(max_workers=max_workers)
        try:
            # Probe that worker processes actually start (some sandboxes
            # forbid them); after a successful probe, genuine worker
            # crashes are handled by the recovery loop instead of silently
            # re-running serially.
            pool.submit(int, 0).result()
        except (OSError, RuntimeError):
            self._terminate_pool(pool)
            return self._sweep_serial(work, labels, recovery, positions)

        outputs: List[object] = [None] * n
        attempts = [0] * n  # attempts already charged per point
        not_before = [0.0] * n  # backoff deadline before the next submit
        started_at: List[Optional[float]] = [None] * n
        pending = deque(range(n))  # indices waiting to be (re)submitted
        in_flight: Dict[object, Tuple[int, float]] = {}  # future -> (index, t0)
        completed = 0
        abort = False

        def charge_attempt(
            index: int,
            exc: Optional[BaseException],
            error_type: str,
            error_repr: str,
            tb_text: str,
        ) -> None:
            """One attempt of ``index`` failed: retry after backoff, or fail."""
            nonlocal completed, abort
            attempts[index] += 1
            if attempts[index] >= recovery.max_attempts:
                graph, point, _, graph_label, position = base[index]
                first_start = started_at[index]
                failure = SweepFailure(
                    point=point,
                    graph_label=graph_label,
                    attempts=attempts[index],
                    error_type=error_type,
                    error=error_repr,
                    traceback=tb_text,
                    elapsed_s=(
                        time.monotonic() - first_start if first_start is not None else 0.0
                    ),
                )
                outputs[index] = _PointFailure(failure, exc)
                completed += 1
                if recovery.on_error == "raise":
                    abort = True
            else:
                position = base[index][4]
                not_before[index] = time.monotonic() + _backoff_delay(
                    recovery.backoff, position, attempts[index]
                )
                pending.append(index)

        def submit(index: int) -> None:
            graph, point, cost_model, graph_label, position = base[index]
            if started_at[index] is None:
                started_at[index] = time.monotonic()
            payload = (
                graph,
                point,
                cost_model,
                graph_label,
                recovery.fault_plan,
                position,
                attempts[index],
            )
            in_flight[pool.submit(_sweep_worker, payload)] = (index, time.monotonic())

        def recycle_pool() -> None:
            nonlocal pool
            self._terminate_pool(pool)
            pool = ProcessPoolExecutor(max_workers=max_workers)

        try:
            while completed < n and not abort:
                now = time.monotonic()
                # Submit every ready task (backoff deadline passed) up to
                # the pool's width; deferred tasks keep their order.
                if pending and len(in_flight) < max_workers:
                    deferred: List[int] = []
                    while pending and len(in_flight) < max_workers:
                        index = pending.popleft()
                        if not_before[index] > now:
                            deferred.append(index)
                        else:
                            submit(index)
                    pending.extendleft(reversed(deferred))
                if not in_flight:
                    # Everything runnable is waiting out a backoff.
                    soonest = min(not_before[index] for index in pending)
                    time.sleep(max(0.0, soonest - time.monotonic()))
                    continue
                if recovery.timeout is not None:
                    deadline = min(t0 + recovery.timeout for _, t0 in in_flight.values())
                    wait_timeout = max(0.0, deadline - time.monotonic()) + 0.01
                else:
                    wait_timeout = None
                done, _ = futures_wait(
                    list(in_flight), timeout=wait_timeout, return_when=FIRST_COMPLETED
                )
                broken: Optional[BaseException] = None
                for future in done:
                    index, t0 = in_flight.pop(future)
                    try:
                        value = future.result()
                    except BrokenProcessPool as exc:
                        # Put the future back so the stranded sweep below
                        # charges this point along with the rest.
                        in_flight[future] = (index, t0)
                        broken = exc
                        break
                    except Exception as exc:
                        # e.g. the worker's return value failed to unpickle.
                        charge_attempt(
                            index,
                            exc,
                            type(exc).__name__,
                            repr(exc),
                            traceback_module.format_exc(),
                        )
                        continue
                    if isinstance(value, _WorkerFailure):
                        charge_attempt(
                            index,
                            value.exception,
                            value.error_type,
                            value.error_repr,
                            value.traceback_text,
                        )
                        continue
                    try:
                        result = _validate_sweep_result(value)
                    except SimulationError as exc:
                        charge_attempt(index, exc, type(exc).__name__, repr(exc), "")
                        continue
                    outputs[index] = result
                    completed += 1
                if broken is not None:
                    # A worker died hard (injected crash / OOM kill / segv).
                    # Any in-flight point may have been the one the dead
                    # worker was evaluating, so each is charged one attempt
                    # and requeued; the broken pool is respawned.
                    stranded = [index for index, _ in in_flight.values()]
                    in_flight.clear()
                    recycle_pool()
                    for index in stranded:
                        charge_attempt(
                            index,
                            broken,
                            type(broken).__name__,
                            f"worker process died while this point was in flight: {broken!r}",
                            "",
                        )
                    continue
                if recovery.timeout is not None and not done:
                    now = time.monotonic()
                    overdue = [
                        (index, t0)
                        for _, (index, t0) in in_flight.items()
                        if now - t0 >= recovery.timeout
                    ]
                    if overdue:
                        # Running futures cannot be cancelled: kill the
                        # workers and respawn the pool.  Overdue points are
                        # charged a timeout attempt; the other in-flight
                        # points are requeued without charge.
                        overdue_set = {index for index, _ in overdue}
                        bystanders = [
                            index
                            for _, (index, _) in in_flight.items()
                            if index not in overdue_set
                        ]
                        in_flight.clear()
                        recycle_pool()
                        for index, _ in overdue:
                            exc = TimeoutError(
                                f"sweep point exceeded timeout={recovery.timeout}s "
                                "in a worker process; worker killed"
                            )
                            charge_attempt(index, exc, "TimeoutError", repr(exc), "")
                        for index in reversed(bystanders):
                            not_before[index] = 0.0
                            pending.appendleft(index)
        finally:
            self._terminate_pool(pool)
        return outputs
