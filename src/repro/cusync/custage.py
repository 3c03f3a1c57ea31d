"""``CuStage``: the synchronization state of one kernel in a pipeline.

A stage wraps one kernel launch and provides everything the paper's
``CuStage`` object provides (Figure 4):

* ``tile()`` — the custom tile processing order (installed in the launch as
  a dispatch-counter → tile lookup);
* ``start()`` — the stage-start flag posted when the first block begins,
  which releases the consumer's wait-kernel;
* ``wait()`` — expressed here as :meth:`plan_reads`: the stage splits a
  consumer's read of a producer-owned tensor into chunks and attaches the
  semaphore waits dictated by the *producer's* policy;
* ``post()`` — :meth:`posts_for`: the semaphore increment performed after an
  output tile is complete.

Dependencies are declared between stages (``CuSync::dependency`` in the
paper); each dependency may carry a *range map* that translates element
coordinates of the consumer's read into coordinates of the producer's
output — this is how sliced/strided dependences (the Q/K/V slices of the
attention QKV GeMM, Figure 5b) are expressed, and it is exactly the affine
dependence information cuSyncGen extracts from the DSL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.dim3 import Dim3, ceil_div
from repro.errors import SynchronizationError
from repro.gpu.kernel import SemPost, SemWait, TensorAccess, TileOrderFn, row_major_tiles
from repro.kernels.base import IndexRange, ReadPlanStep, StageGeometry, SyncInterface
from repro.cusync.optimizations import OptimizationFlags
from repro.cusync.policies import SyncPolicy, TileSync
from repro.cusync.semaphores import STAGE_START_ARRAY, stage_semaphore_array
from repro.cusync.tile_orders import RowMajorOrder, TileOrder

#: Maps (rows, cols, batch) of a consumer read to the producer's coordinates.
RangeMap = Callable[[IndexRange, IndexRange, int], Tuple[IndexRange, IndexRange, int]]


@dataclass
class Dependency:
    """One producer → consumer edge for a specific tensor.

    ``policy`` and ``array`` are the producer's semaphore slot the edge
    synchronizes through, resolved once by :meth:`CuStage.depends_on`: the
    producer's default policy and array, or the slot of a per-edge override.
    """

    producer: "CuStage"
    tensor: str
    policy: SyncPolicy
    array: str
    range_map: Optional[RangeMap] = None


class CuStage(SyncInterface):
    """Synchronization facilities of one kernel (the paper's ``CuStage``)."""

    #: Whether a producer whose consumer edges *all* override its default
    #: policy skips posting the (unused) slot-0 semaphore array.  A real
    #: cuSync producer only posts the schemes its consumers registered, so
    #: the elision is the faithful model; the flag exists so tests can
    #: compare against the unelided behaviour.
    elide_idle_slot0: bool = True

    def __init__(
        self,
        name: str,
        geometry: StageGeometry,
        policy: Optional[SyncPolicy] = None,
        order: Optional[TileOrder] = None,
        optimizations: Optional[OptimizationFlags] = None,
    ) -> None:
        self.name = name
        self.geometry = geometry
        self.policy = policy if policy is not None else TileSync()
        self.order = order if order is not None else RowMajorOrder()
        self.optimizations = optimizations if optimizations is not None else OptimizationFlags()
        #: Launch index of the stage: its stream priority and its slot in
        #: the stage-start array.  Set by the cusync backend.
        self.stage_index: int = 0
        #: Whether the stage is bound for a functional run.  Set by the
        #: cusync backend; only functional runs race-check reads, so only
        #: they get ``reads`` in planned steps.
        self.functional: bool = True
        self._logical_grid = geometry.logical_grid
        #: Dependencies of this stage, keyed by the tensor it reads.
        self.dependencies: Dict[str, Dependency] = {}
        #: Stages that consume this stage's output.
        self.consumers: List["CuStage"] = []
        #: Memoized consumer-read plans keyed by
        #: (tensor, rows, cols, batch, semaphore array).  Consumer blocks in the
        #: same tile row/column ask for identical ranges, so the per-range
        #: planning loop runs once per distinct range instead of once per
        #: dispatched block.  Cached plans are shared (ReadPlanStep is
        #: frozen): callers must not mutate them.
        self._consumer_read_cache: Dict[
            Tuple[str, IndexRange, IndexRange, int, str], List[ReadPlanStep]
        ] = {}
        #: Additional producer-side policies demanded by consumer edges that
        #: override this stage's default (slot 0 is ``self.policy``); each
        #: gets its own semaphore array and one extra post per output tile.
        self._edge_policies: List[SyncPolicy] = []
        #: How many consumer edges synchronize through slot 0 (the stage's
        #: default policy).  When every edge overrides the default, nobody
        #: ever waits on the slot-0 array and its posts are elided.
        self._slot0_edges: int = 0
        #: (array, policy) pairs each output tile posts, resolved by the
        #: first post once the edges are wired (see :meth:`posts_for`).
        self._post_slots: Optional[List[Tuple[str, SyncPolicy]]] = None
        #: Per semaphore array: the wait guarding each logical tile, in
        #: row-major order, built by the first read planned through it.
        self._wait_tables: Dict[str, List[SemWait]] = {}
        # Validate the policy against the logical grid up front (the bounds
        # check cuSyncGen performs in step 2 of its workflow).
        self.policy.validate(self.logical_grid)

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def grid(self) -> Dim3:
        """The launch grid of the stage's kernel (includes split-K blocks)."""
        return self.geometry.grid

    @property
    def logical_grid(self) -> Dim3:
        """The grid of logical output tiles (split-K folded away)."""
        return self._logical_grid

    @property
    def semaphore_array(self) -> str:
        """Name of this stage's semaphore array in global memory."""
        return stage_semaphore_array(self.name)

    @property
    def posts_per_tile(self) -> int:
        """How many posts one logical tile receives (split-K contributions)."""
        return self.geometry.split_k

    def logical_tile(self, tile: Dim3) -> Dim3:
        """Fold a launch-grid tile coordinate into its logical tile.

        Without split-K the launch tile *is* the logical tile, so the
        (validated) ``Dim3`` construction is skipped on that per-block path.
        """
        split_k = self.geometry.split_k
        if split_k == 1:
            return tile
        return Dim3(tile.x, tile.y, tile.z // split_k)

    # ------------------------------------------------------------------
    # Dependency declaration (CuSync::dependency in the paper)
    # ------------------------------------------------------------------
    def depends_on(
        self,
        producer: "CuStage",
        tensor: str,
        range_map: Optional[RangeMap] = None,
        policy: Optional[SyncPolicy] = None,
    ) -> None:
        """Declare that this stage reads ``tensor`` produced by ``producer``.

        ``policy`` makes this one edge synchronize under a different policy
        than the producer's default: the producer allocates an extra
        semaphore array for it and posts both after each output tile.
        """
        if tensor in self.dependencies:
            raise SynchronizationError(
                f"stage '{self.name}' already has a dependency for tensor '{tensor}'"
            )
        slot_policy, array = producer.register_edge_policy(policy)
        self.dependencies[tensor] = Dependency(
            producer=producer, tensor=tensor, policy=slot_policy, array=array, range_map=range_map
        )
        producer.consumers.append(self)

    # ------------------------------------------------------------------
    # Per-edge policy slots (producer side)
    # ------------------------------------------------------------------
    def register_edge_policy(self, policy: Optional[SyncPolicy]) -> Tuple[SyncPolicy, str]:
        """Register one consumer edge with this producer and return its slot.

        The slot is the (policy, semaphore array) pair the edge's waits and
        the producer's posts share.  ``None``, or an override
        value-identical to the stage default, is slot 0: the default policy
        and array.  Any other override gets its own deduplicated slot.
        """
        self._post_slots = None
        if policy is None or policy.key() == self.policy.key():
            # Slot 0 has a consumer, so the producer must keep posting it.
            self._slot0_edges += 1
            return self.policy, self.semaphore_array
        for index, existing in enumerate(self._edge_policies, start=1):
            if existing.key() == policy.key():
                return existing, stage_semaphore_array(self.name, index)
        policy.validate(self.logical_grid)
        self._edge_policies.append(policy)
        return policy, stage_semaphore_array(self.name, len(self._edge_policies))

    def semaphore_slots(self) -> List[Tuple[str, SyncPolicy]]:
        """Every (array name, policy) pair this producer posts to."""
        slots = [(self.semaphore_array, self.policy)]
        slots.extend(
            (stage_semaphore_array(self.name, index), edge_policy)
            for index, edge_policy in enumerate(self._edge_policies, start=1)
        )
        return slots

    @property
    def is_consumer(self) -> bool:
        return bool(self.dependencies)

    @property
    def is_producer(self) -> bool:
        return bool(self.consumers)

    # ------------------------------------------------------------------
    # SyncInterface: consumer side
    # ------------------------------------------------------------------
    @property
    def reorder_loads(self) -> bool:  # type: ignore[override]
        return self.optimizations.reorder_loads

    def plan_reads(
        self, tensor: str, rows: IndexRange, cols: IndexRange, batch: int = 0
    ) -> List[ReadPlanStep]:
        dependency = self.dependencies.get(tensor)
        if dependency is None:
            return [ReadPlanStep(rows=rows, cols=cols, batch=batch)]
        if dependency.range_map is not None:
            rows, cols, batch = dependency.range_map(rows, cols, batch)
        return dependency.producer.plan_consumer_reads(
            tensor, rows, cols, batch, dependency.policy, dependency.array
        )

    def plan_consumer_reads(
        self,
        tensor: str,
        rows: IndexRange,
        cols: IndexRange,
        batch: int,
        policy: SyncPolicy,
        array: str,
    ) -> List[ReadPlanStep]:
        """Producer-side mapping: element ranges of *my output* → guarded chunks.

        One chunk is emitted per column tile (the consumer's main-loop
        direction); consecutive chunks whose semaphore requirements are
        identical are merged, which collapses RowSync dependences into a
        single wait covering the whole range.  Each chunk's ``reads`` (the
        producer tiles it covers, for race detection) are populated only
        when the stage is bound for a functional run.

        ``policy`` and ``array`` are the edge's slot, as returned by
        :meth:`register_edge_policy`.

        Results are memoized per (tensor, rows, cols, batch, array): the
        policies, geometry and order of a stage are fixed once the pipeline
        is built, so identical ranges always plan identically.  The
        returned list is shared between callers and must be treated as
        immutable.
        """
        key = (tensor, rows, cols, batch, array)
        cached = self._consumer_read_cache.get(key)
        if cached is not None:
            return cached
        steps = self._plan_consumer_reads_uncached(tensor, rows, cols, batch, policy, array)
        self._consumer_read_cache[key] = steps
        return steps

    def _tile_waits(self, policy: SyncPolicy, array: str) -> List[SemWait]:
        """The wait guarding each logical tile under one slot, row-major."""
        waits = self._wait_tables.get(array)
        if waits is None:
            grid = self._logical_grid
            posts_per_tile = self.posts_per_tile
            waits = self._wait_tables[array] = [
                SemWait(
                    array,
                    policy.semaphore_index(tile, grid),
                    policy.expected_value(tile, grid) * posts_per_tile,
                )
                for tile in row_major_tiles(grid)
            ]
        return waits

    def _plan_consumer_reads_uncached(
        self,
        tensor: str,
        rows: IndexRange,
        cols: IndexRange,
        batch: int,
        policy: SyncPolicy,
        array: str,
    ) -> List[ReadPlanStep]:
        geometry = self.geometry
        grid = self._logical_grid
        if not (0 <= batch < grid.z):
            raise SynchronizationError(
                f"stage '{self.name}': consumer read references batch {batch} "
                f"outside the producer's batch range [0, {grid.z})"
            )

        row_lo = max(0, rows[0]) // geometry.tile_rows
        row_hi = min(grid.y, ceil_div(max(rows[1], rows[0] + 1), geometry.tile_rows))
        col_lo = max(0, cols[0]) // geometry.tile_cols
        col_hi = min(grid.x, ceil_div(max(cols[1], cols[0] + 1), geometry.tile_cols))
        row_hi = max(row_hi, row_lo + 1)
        col_hi = max(col_hi, col_lo + 1)

        tile_waits = self._tile_waits(policy, array)
        functional = self.functional
        # Row-major offsets of this read's tile rows in the wait table.
        row_offsets = [(batch * grid.y + row) * grid.x for row in range(row_lo, row_hi)]
        tile_cols = geometry.tile_cols
        steps: List[ReadPlanStep] = []
        run_waits: Optional[Tuple[SemWait, ...]] = None
        for tile_col in range(col_lo, col_hi):
            reads: List[TensorAccess] = []
            if functional:
                reads = [
                    TensorAccess(tensor, (tile_col, tile_row, batch))
                    for tile_row in range(row_lo, row_hi)
                ]
            if len(row_offsets) == 1:
                waits = (tile_waits[row_offsets[0] + tile_col],)
            else:
                # Per semaphore, the wait with the highest required value.
                requirements: Dict[int, SemWait] = {}
                for offset in row_offsets:
                    wait = tile_waits[offset + tile_col]
                    held = requirements.get(wait.index)
                    if held is None or wait.required > held.required:
                        requirements[wait.index] = wait
                waits = tuple(sorted(requirements.values()))
            chunk_hi = min(cols[1], (tile_col + 1) * tile_cols)
            if waits == run_waits:
                # Same semaphores as the previous chunk: extend it instead of
                # waiting again (this is what makes RowSync one wait total).
                run_hi = chunk_hi
                run_reads.extend(reads)
                continue
            if run_waits is not None:
                steps.append(
                    ReadPlanStep(rows, (run_lo, run_hi), run_waits, tuple(run_reads), batch)
                )
            run_lo, run_hi = max(cols[0], tile_col * tile_cols), chunk_hi
            run_waits, run_reads = waits, reads
        steps.append(ReadPlanStep(rows, (run_lo, run_hi), run_waits, tuple(run_reads), batch))
        return steps

    # ------------------------------------------------------------------
    # SyncInterface: producer side
    # ------------------------------------------------------------------
    @property
    def slot0_posts_elided(self) -> bool:
        """Whether the stage's default (slot-0) semaphore posts are skipped.

        True exactly when consumer edges exist, every one of them overrides
        the stage's default policy, and elision is enabled: no wait ever
        reads the slot-0 array, so a faithful producer does not pay the
        atomic increments for it (per-policy-slot post elision).
        """
        return (
            self.elide_idle_slot0
            and bool(self._edge_policies)
            and self._slot0_edges == 0
        )

    def posts_for(self, tile: Dim3, grid: Dim3) -> List[SemPost]:
        # One post per slot a consumer synchronizes through: slot 0 (unless
        # elided) plus each edge override's own array, so mixing policies
        # costs extra posts only on stages that actually mix.
        slots = self._post_slots
        if slots is None:
            slots = self._post_slots = self._resolve_post_slots()
        if not slots:
            return []
        logical = self.logical_tile(tile)
        logical_grid = self._logical_grid
        return [
            SemPost(array, policy.semaphore_index(logical, logical_grid), 1)
            for array, policy in slots
        ]

    def _resolve_post_slots(self) -> List[Tuple[str, SyncPolicy]]:
        if not self.is_producer:
            return []
        slots = self.semaphore_slots()
        return slots[1:] if self.slot0_posts_elided else slots

    def output_tile_key(self, tile: Dim3, grid: Dim3):
        logical = self.logical_tile(tile)
        return (logical.x, logical.y, logical.z)

    def tile_order(self, grid: Dim3) -> Optional[TileOrderFn]:
        if self.optimizations.avoid_custom_tile_order:
            return None
        return self.order.order_fn(grid)

    def first_block_posts(self) -> List[SemPost]:
        # Posting the start flag is cheap and only matters when a consumer's
        # wait-kernel polls it, so it is emitted whenever the stage has
        # consumers (the producer cannot know whether the consumer elided
        # its wait-kernel).
        if not self.is_producer:
            return []
        return [SemPost(STAGE_START_ARRAY, self.stage_index, 1)]

    # ------------------------------------------------------------------
    # Wait-kernel support (consumer side)
    # ------------------------------------------------------------------
    def wait_kernel_waits(self) -> List[SemWait]:
        """Semaphore conditions the stage's wait-kernel polls."""
        producers = {dep.producer.stage_index for dep in self.dependencies.values()}
        return [SemWait(STAGE_START_ARRAY, index, 1) for index in sorted(producers)]

    def needs_wait_kernel(self) -> bool:
        """Whether a wait-kernel must precede this stage's kernel."""
        return self.is_consumer and not self.optimizations.avoid_wait_kernel

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line description used in reports."""
        return (
            f"CuStage({self.name}, grid={self.grid}, policy={self.policy.name}, "
            f"order={self.order.name}, opts={self.optimizations.suffix or 'none'})"
        )

    def __repr__(self) -> str:
        return self.describe()
