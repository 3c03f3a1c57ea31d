"""Synchronization policies and the first-class policy space.

A policy is a mapping from producer tiles to semaphores (Section III-E): a
producer thread block increments the semaphore its tile maps to, and a
consumer thread block waits until the semaphore reaches the value that means
"every producer tile I depend on through this semaphore is finished".

A policy must implement two methods, mirroring the paper's ``sem`` and
``value``:

``semaphore_index(tile, grid)``
    Which semaphore the (logical) producer tile posts to.
``expected_value(tile, grid)``
    The semaphore value at which that tile is guaranteed complete.

Tiles here are *logical* tiles ``(x, y, batch)``: the split-K dimension is
folded away by :class:`~repro.cusync.custage.CuStage`, which multiplies the
expected values by the number of posts per logical tile.

Provided policies (all from the paper):

* :class:`TileSync` — one semaphore per tile, the finest granularity.
* :class:`RowSync` — one semaphore per row of tiles; fewer synchronizations
  at the cost of coarser overlap.
* :class:`StridedSync` — tiles at a fixed column stride share a semaphore
  (the Q/K/V slices of the fused attention GeMM, Figure 5b).
* :class:`Conv2DTileSync` — TileSync specialised for implicit-GeMM Conv2D.
* :class:`BatchSync` — one semaphore per batch entry (coarsest useful
  granularity; included as a reference point for the ablation benches).

On top of the policy classes this module provides the **policy space API**,
built like the architecture space of :mod:`repro.gpu.arch` on the one spec
type and registry of :mod:`repro.common.registry`:

* :class:`PolicySpec` — a hashable, picklable ``(name, params)`` value
  naming a policy family and its parameters without instantiating it;
* a user-extensible registry (:func:`register_policy`,
  :func:`resolve_policy`, :func:`registered_policies`) that subsumes the
  previously hard-coded family strings.  Factories receive a
  :class:`PolicyContext` describing the producer stage so grid-adaptive
  families (``StridedTileSync``) can specialise or fall back;
* :class:`PolicyAssignment` — a run-wide default spec plus per-stage and
  per-edge overrides, letting one pipeline execution mix policy families
  edge by edge (a GeMM → GeMM edge under ``RowSync`` while a sibling
  attention edge uses ``StridedSync``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Union

from repro.common.dim3 import Dim3
from repro.common.registry import Registry, Spec
from repro.common.validation import check_positive
from repro.errors import ModelConfigError, SynchronizationError
from repro.gpu.kernel import row_major_tiles


class SyncPolicy(ABC):
    """Mapping of producer tiles to semaphores."""

    #: Short name used in reports and benchmark tables.
    name: str = "policy"

    @abstractmethod
    def num_semaphores(self, grid: Dim3) -> int:
        """Number of semaphores needed for a producer with ``grid`` tiles."""

    @abstractmethod
    def semaphore_index(self, tile: Dim3, grid: Dim3) -> int:
        """Semaphore posted by the producer block computing ``tile``."""

    @abstractmethod
    def expected_value(self, tile: Dim3, grid: Dim3) -> int:
        """Semaphore value at which ``tile`` is guaranteed to be complete."""

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def key(self) -> Tuple:
        """Value identity of the policy, used to deduplicate per-edge slots.

        Two policy objects with equal keys map every tile to the same
        semaphore and expected value.  Parameterized policies must extend
        the tuple with their parameters (see :class:`StridedSync`).
        """
        return (type(self).__name__,)

    def validate(self, grid: Dim3) -> None:
        """Check that every tile maps to a valid semaphore and expected value.

        Policies generated by cuSyncGen are validated against the declared
        grid bounds before use (step 2 of the Section IV-A workflow).  The
        error names the first offending tile in row-major order.
        """
        count = self.num_semaphores(grid)
        for tile in row_major_tiles(grid):
            index = self.semaphore_index(tile, grid)
            if not 0 <= index < count:
                raise SynchronizationError(
                    f"{self.name}: tile {tile} maps to semaphore {index}, "
                    f"outside the allocated range [0, {count})"
                )
            value = self.expected_value(tile, grid)
            if value <= 0:
                raise SynchronizationError(
                    f"{self.name}: tile {tile} has non-positive expected value {value}"
                )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class TileSync(SyncPolicy):
    """One semaphore per producer tile (the paper's finest-grained policy)."""

    name = "TileSync"

    def num_semaphores(self, grid: Dim3) -> int:
        return grid.volume

    def semaphore_index(self, tile: Dim3, grid: Dim3) -> int:
        return (tile.z * grid.y + tile.y) * grid.x + tile.x

    def expected_value(self, tile: Dim3, grid: Dim3) -> int:
        return 1


class RowSync(SyncPolicy):
    """One semaphore per row of producer tiles.

    All tiles with the same ``y`` (and batch) share a semaphore; the row is
    ready when the semaphore reaches ``grid.x``.  Compared to TileSync this
    trades overlap granularity for far fewer synchronization operations,
    which the paper shows wins for large GeMMs (Table IV, sizes >= 512).
    """

    name = "RowSync"

    def num_semaphores(self, grid: Dim3) -> int:
        return grid.y * grid.z

    def semaphore_index(self, tile: Dim3, grid: Dim3) -> int:
        return tile.z * grid.y + tile.y

    def expected_value(self, tile: Dim3, grid: Dim3) -> int:
        return grid.x


@dataclass
class StridedSync(SyncPolicy):
    """Tiles whose columns differ by a multiple of ``stride`` share a semaphore.

    This is the policy cuSyncGen generates for the attention dependence
    where one consumer tile needs the Q, K and V slices of the fused QKV
    GeMM output: producer tiles ``x``, ``x + stride`` and ``x + 2*stride``
    (with ``stride = grid.x / groups``) map to the same semaphore, and the
    semaphore is ready once all ``groups`` tiles have posted.
    """

    stride: int
    name: str = "StridedSync"

    def __post_init__(self) -> None:
        check_positive("stride", self.stride)

    def key(self) -> Tuple:
        return (type(self).__name__, self.stride)

    def groups(self, grid: Dim3) -> int:
        if grid.x % self.stride != 0:
            raise SynchronizationError(
                f"StridedSync stride {self.stride} does not divide grid.x={grid.x}"
            )
        return grid.x // self.stride

    def num_semaphores(self, grid: Dim3) -> int:
        return self.stride * grid.y * grid.z

    def semaphore_index(self, tile: Dim3, grid: Dim3) -> int:
        return (tile.z * grid.y + tile.y) * self.stride + (tile.x % self.stride)

    def expected_value(self, tile: Dim3, grid: Dim3) -> int:
        return self.groups(grid)


class Conv2DTileSync(TileSync):
    """Per-tile synchronization for implicit-GeMM Conv2D kernels.

    Functionally identical to :class:`TileSync` on the producer's tile grid;
    the difference in the paper is how the *consumer's* implicit-GeMM
    coordinates map back to producer tiles (the ``x / (R*S)`` mapping of
    Figure 5c), which in this reproduction is handled by the stage's
    range-to-tile mapping, including the receptive-field halo.
    """

    name = "Conv2DTileSync"


class BatchSync(SyncPolicy):
    """One semaphore per batch entry: the coarsest useful granularity.

    Not evaluated in the paper, but a useful lower bound when studying the
    synchronization-granularity trade-off in the ablation benchmarks.
    """

    name = "BatchSync"

    def num_semaphores(self, grid: Dim3) -> int:
        return grid.z

    def semaphore_index(self, tile: Dim3, grid: Dim3) -> int:
        return tile.z

    def expected_value(self, tile: Dim3, grid: Dim3) -> int:
        return grid.x * grid.y


# ======================================================================
# The first-class policy space: specs, registry, assignments
# ======================================================================
class PolicySpec(Spec):
    """A policy family plus parameters, without an instance.

    Specs are the *declarative* half of the policy space.  They are turned
    into :class:`SyncPolicy` objects by :func:`resolve_policy`, which calls
    the family's registered factory with a per-stage
    :class:`PolicyContext`::

        PolicySpec("RowSync")
        PolicySpec("StridedSync", stride=4)
        PolicySpec("StridedTileSync", groups=3)   # grid-adaptive family
    """

    __slots__ = ()
    kind = "synchronization policy family"
    tag = "policy-spec"
    hint = "pass SyncPolicy instances via StageSpec.policy / Edge.policy"


@dataclass(frozen=True)
class PolicyContext:
    """What a policy factory may know about the producer stage it serves.

    ``logical_grid`` is the producer's grid of logical output tiles;
    ``strided_groups`` is the stage's declared Q/K/V-style grouping (see
    :class:`~repro.pipeline.graph.StageSpec`).  All fields are optional so
    specs can also be resolved stage-free (e.g. in tests).
    """

    stage_name: str = ""
    logical_grid: Optional[Dim3] = None
    strided_groups: Optional[int] = None


#: A factory builds a policy instance from spec parameters and the context.
PolicyFactory = Callable[[Dict[str, Any], PolicyContext], SyncPolicy]
#: An order factory optionally pairs a tile processing order with a family
#: (returning ``None`` means "use the executor default, row-major").
OrderFactory = Callable[[Dict[str, Any], PolicyContext], Optional[object]]


#: Family name -> ``(factory, order_factory)``.
_POLICIES = Registry(PolicySpec.kind)


def register_policy(
    family: str,
    factory: Optional[PolicyFactory] = None,
    *,
    aliases: Iterable[str] = (),
    order_factory: Optional[OrderFactory] = None,
    overwrite: bool = False,
):
    """Register a policy family under ``family`` (and ``aliases``).

    Usable directly (``register_policy("MySync", make_mysync)``) or as a
    decorator over the factory::

        @register_policy("HaloSync", aliases=("halo",))
        def _make_halo(params, ctx):
            return HaloSync(radius=params.get("radius", 1))

    The factory receives the spec's parameters (a plain dict) and a
    :class:`PolicyContext`; it returns a ready :class:`SyncPolicy`.  An
    ``order_factory`` may pair a custom tile processing order with the
    family (the registry hook behind ``StridedTileSync``'s grouped-columns
    order).  Re-registering a taken name raises unless ``overwrite=True``,
    which replaces only ``family``'s own previous registration (see
    :meth:`repro.common.registry.Registry.register`).
    """

    def _register(the_factory: PolicyFactory) -> PolicyFactory:
        _POLICIES.register(
            family, (the_factory, order_factory), aliases=aliases, overwrite=overwrite
        )
        return the_factory

    if factory is not None:
        return _register(factory)
    return _register


def unregister_policy(family: str) -> None:
    """Remove a family and every alias registered for it."""
    _POLICIES.unregister(family)


def registered_policies() -> Tuple[str, ...]:
    """Canonical names of every registered family, sorted."""
    return _POLICIES.names()


def resolve_policy(
    policy: Union[str, PolicySpec, SyncPolicy],
    context: Optional[PolicyContext] = None,
) -> SyncPolicy:
    """Turn a family name / spec into a policy instance for one stage.

    :class:`SyncPolicy` instances pass through unchanged; strings lower to
    parameterless specs.  ``context`` defaults to an empty context, which
    is enough for families that need no stage information.
    """
    if isinstance(policy, SyncPolicy):
        return policy
    spec = PolicySpec.coerce(policy)
    factory, _ = _POLICIES.lookup(spec.name)
    return factory(dict(spec.params), context if context is not None else PolicyContext())


def resolve_order_for(
    policy: Union[str, PolicySpec],
    context: Optional[PolicyContext] = None,
):
    """The tile processing order a family pairs with, or ``None`` for default."""
    spec = PolicySpec.coerce(policy)
    _, order_factory = _POLICIES.lookup(spec.name)
    if order_factory is None:
        return None
    return order_factory(dict(spec.params), context if context is not None else PolicyContext())


# ----------------------------------------------------------------------
# Built-in families
# ----------------------------------------------------------------------
def _reject_params(family: str, params: Dict[str, Any]) -> None:
    if params:
        raise ModelConfigError(
            f"policy family {family!r} takes no parameters, got {sorted(params)}"
        )


def _make_tilesync(params: Dict[str, Any], ctx: PolicyContext) -> SyncPolicy:
    _reject_params("TileSync", params)
    return TileSync()


def _make_rowsync(params: Dict[str, Any], ctx: PolicyContext) -> SyncPolicy:
    _reject_params("RowSync", params)
    return RowSync()


def _make_conv2d_tilesync(params: Dict[str, Any], ctx: PolicyContext) -> SyncPolicy:
    _reject_params("Conv2DTileSync", params)
    return Conv2DTileSync()


def _make_batchsync(params: Dict[str, Any], ctx: PolicyContext) -> SyncPolicy:
    _reject_params("BatchSync", params)
    return BatchSync()


def _make_stridedsync(params: Dict[str, Any], ctx: PolicyContext) -> SyncPolicy:
    stride = params.get("stride")
    groups = params.get("groups")
    unknown = set(params) - {"stride", "groups"}
    if unknown:
        raise ModelConfigError(
            f"policy family 'StridedSync' got unknown parameters {sorted(unknown)}"
        )
    if stride is None:
        if groups is None:
            raise ModelConfigError(
                "PolicySpec('StridedSync') needs stride=... or groups=..."
            )
        if ctx.logical_grid is None:
            raise ModelConfigError(
                "PolicySpec('StridedSync', groups=...) needs a stage context "
                "to derive the stride from the producer grid"
            )
        if ctx.logical_grid.x % groups != 0:
            raise SynchronizationError(
                f"StridedSync groups {groups} does not divide "
                f"grid.x={ctx.logical_grid.x}"
            )
        stride = ctx.logical_grid.x // groups
    return StridedSync(stride=stride)


def _strided_tile_groups(params: Dict[str, Any], ctx: PolicyContext) -> Optional[int]:
    """The group count StridedTileSync specialises on, or None to fall back."""
    unknown = set(params) - {"groups"}
    if unknown:
        raise ModelConfigError(
            f"policy family 'StridedTileSync' got unknown parameters {sorted(unknown)}"
        )
    groups = params.get("groups", ctx.strided_groups)
    grid = ctx.logical_grid
    if groups is not None and grid is not None and grid.x % groups == 0 and grid.x > groups:
        return groups
    return None


def _make_strided_tilesync(params: Dict[str, Any], ctx: PolicyContext) -> SyncPolicy:
    groups = _strided_tile_groups(params, ctx)
    if groups is not None:
        return StridedSync(stride=ctx.logical_grid.x // groups)
    return TileSync()


def _strided_tilesync_order(params: Dict[str, Any], ctx: PolicyContext):
    from repro.cusync.tile_orders import GroupedColumnsOrder

    groups = _strided_tile_groups(params, ctx)
    if groups is not None:
        return GroupedColumnsOrder(group=groups)
    return None


register_policy("TileSync", _make_tilesync, aliases=("tile",))
register_policy("RowSync", _make_rowsync, aliases=("row",))
register_policy("Conv2DTileSync", _make_conv2d_tilesync, aliases=("conv2dtile",))
register_policy("BatchSync", _make_batchsync, aliases=("batch",))
register_policy("StridedSync", _make_stridedsync)
register_policy(
    "StridedTileSync",
    _make_strided_tilesync,
    aliases=("strided",),
    order_factory=_strided_tilesync_order,
)


# ----------------------------------------------------------------------
# Per-edge policy assignment
# ----------------------------------------------------------------------
#: Keys addressing one graph edge: ``(producer, consumer, tensor)`` exact,
#: or ``(producer, consumer)`` matching every tensor of the pair.
EdgeKey = Union[Tuple[str, str, str], Tuple[str, str]]


def _normalize_edge_key(key) -> Tuple[str, str, Optional[str]]:
    if hasattr(key, "producer") and hasattr(key, "consumer"):
        return (key.producer, key.consumer, getattr(key, "tensor", None))
    parts = tuple(key)
    if len(parts) == 2:
        return (parts[0], parts[1], None)
    if len(parts) == 3:
        return (parts[0], parts[1], parts[2])
    raise ModelConfigError(
        f"edge keys are (producer, consumer[, tensor]) tuples or Edge objects, got {key!r}"
    )


@dataclass(frozen=True, repr=False)
class PolicyAssignment:
    """Per-edge policy specs over a pipeline graph, with a run-wide default.

    An assignment decides, for every producer → consumer edge, which policy
    family guards the consumer's reads of that edge's tensor:

    * ``edges`` overrides win (keyed exactly by ``(producer, consumer,
      tensor)`` or for the whole pair by ``(producer, consumer)``);
    * otherwise the producer stage's entry in ``stages`` applies;
    * otherwise ``default`` applies.

    The stage entry also selects the producer's *posting* policy and tile
    order, exactly like the legacy run-wide family string did — stage-level
    overrides are sugar that lowers onto every edge out of the stage.
    Assignments are immutable, hashable and picklable, so they ride inside
    :class:`~repro.pipeline.session.SweepPoint` grids across process
    boundaries::

        PolicyAssignment(
            default="RowSync",
            edges={("attn_qkv", "attn_scores", "XQ"): "StridedTileSync"},
        )

    ``stages`` and ``edges`` accept mappings (or ``(key, spec)`` pairs) and
    are stored as sorted ``(key, PolicySpec)`` tuples; edge keys normalize
    to ``(producer, consumer, tensor-or-None)``.
    """

    default: PolicySpec = "TileSync"
    stages: Tuple[Tuple[str, PolicySpec], ...] = ()
    edges: Tuple[Tuple[Tuple[str, str, Optional[str]], PolicySpec], ...] = ()

    def __post_init__(self) -> None:
        stages = sorted(
            (name, PolicySpec.coerce(spec)) for name, spec in dict(self.stages or ()).items()
        )
        edges = {
            _normalize_edge_key(key): PolicySpec.coerce(spec)
            for key, spec in dict(self.edges or ()).items()
        }
        object.__setattr__(self, "default", PolicySpec.coerce(self.default))
        object.__setattr__(self, "stages", tuple(stages))
        object.__setattr__(
            self,
            "edges",
            tuple(sorted(edges.items(), key=lambda item: (item[0][0], item[0][1], item[0][2] or ""))),
        )

    # ------------------------------------------------------------------
    @classmethod
    def coerce(cls, value: Union[str, PolicySpec, "PolicyAssignment"]) -> "PolicyAssignment":
        """Lower a family name / spec to a uniform assignment; pass through."""
        if isinstance(value, PolicyAssignment):
            return value
        return cls(default=PolicySpec.coerce(value))

    def spec_for_stage(self, name: str) -> PolicySpec:
        for stage_name, spec in self.stages:
            if stage_name == name:
                return spec
        return self.default

    def spec_for_edge(
        self, producer: str, consumer: str, tensor: str
    ) -> Optional[PolicySpec]:
        """The edge's override spec, or ``None`` (inherit the producer stage)."""
        pair_match: Optional[PolicySpec] = None
        for (key_producer, key_consumer, key_tensor), spec in self.edges:
            if key_producer != producer or key_consumer != consumer:
                continue
            if key_tensor == tensor:
                return spec
            if key_tensor is None:
                pair_match = spec
        return pair_match

    def edge_keys(self) -> Tuple[Tuple[str, str, Optional[str]], ...]:
        return tuple(key for key, _ in self.edges)

    def stage_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.stages)

    # ------------------------------------------------------------------
    def with_stage(self, name: str, spec: Union[str, PolicySpec]) -> "PolicyAssignment":
        return replace(self, stages={**dict(self.stages), name: spec})

    def with_edge(self, key: EdgeKey, spec: Union[str, PolicySpec]) -> "PolicyAssignment":
        return replace(self, edges={**dict(self.edges), _normalize_edge_key(key): spec})

    # ------------------------------------------------------------------
    def label(self) -> str:
        parts = [self.default.label()]
        parts.extend(f"{name}={spec.label()}" for name, spec in self.stages)
        for (producer, consumer, tensor), spec in self.edges:
            edge = f"{producer}->{consumer}" + (f":{tensor}" if tensor else "")
            parts.append(f"{edge}={spec.label()}")
        return "+".join(parts) if len(parts) > 1 else parts[0]

    def __repr__(self) -> str:
        return f"PolicyAssignment({self.label()})"
