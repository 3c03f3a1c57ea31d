"""Base classes shared by all tiled kernels.

The key abstraction is :class:`SyncInterface`: the narrow surface through
which a kernel talks to cuSync.  In the paper, adding cuSync to a CUTLASS
kernel means adding a handful of calls — ``stage.tile()``, ``stage.wait()``
before each tile load and ``stage.post()`` after the tile is computed
(Table III counts those lines).  Here the same calls are expressed as:

``plan_reads(tensor, rows, cols, batch)``
    Ask the stage how to split the main loop over an input tensor into
    chunks and which semaphore waits guard each chunk.  With no
    synchronization (``NoSync``) the answer is "one chunk, no waits"; with
    TileSync it is "one chunk per producer tile, one wait each"; with
    RowSync it is "one chunk, one wait for the whole row".

``posts_for(tile)``
    The semaphore posts to perform once the block's output tile is done.

``tile_order`` / ``first_block_posts``
    The custom tile processing order and the wait-kernel release signal.

Keeping this interface small is what makes the "lines changed" experiment
(Table III) meaningful in the reproduction: kernels contain exactly one call
site per mechanism.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.common.dim3 import Dim3, ceil_div
from repro.gpu.costmodel import CostModel
from repro.gpu.kernel import (
    KernelLaunch,
    Segment,
    SemPost,
    SemWait,
    TensorAccess,
    ThreadBlockProgram,
    TileOrderFn,
)
from repro.gpu.memory import GlobalMemory
from repro.gpu.occupancy import KernelResources, OccupancyCalculator
from repro.gpu.stream import Stream, DEFAULT_STREAM

#: Half-open index range ``(start, stop)`` over rows or columns of a tensor.
IndexRange = Tuple[int, int]


class ReadPlanStep(NamedTuple):
    """One chunk of a kernel's main loop over an input tensor.

    ``rows`` and ``cols`` are the element ranges of the input tensor the
    chunk reads; ``waits`` are the semaphore conditions that must hold
    before the chunk's tiles may be loaded; ``reads`` are the producer tile
    keys covered by the chunk, used for data-race detection.  Only
    functional runs race-check, so a stage bound for a timing run leaves
    ``reads`` empty.  (A NamedTuple, like :class:`SemWait`: steps are
    built per planned chunk, on the block-program build path.)
    """

    rows: IndexRange
    cols: IndexRange
    waits: Tuple[SemWait, ...] = ()
    reads: Tuple[TensorAccess, ...] = ()
    batch: int = 0


class SyncInterface(ABC):
    """What a kernel needs to know about synchronization.

    Implementations: :class:`NoSync` (StreamSync baseline, every method is a
    no-op) and :class:`repro.cusync.custage.CuStage` (the paper's stage).
    """

    #: Whether the "reorder tile loads" optimization (Section IV-C) is on:
    #: the kernel may overlap waiting on one input with loading another.
    reorder_loads: bool = False

    @abstractmethod
    def plan_reads(
        self, tensor: str, rows: IndexRange, cols: IndexRange, batch: int = 0
    ) -> List[ReadPlanStep]:
        """Split a read of ``tensor[rows, cols]`` into guarded chunks."""

    @abstractmethod
    def posts_for(self, tile: Dim3, grid: Dim3) -> List[SemPost]:
        """Semaphore posts to perform after computing output ``tile``."""

    def tile_order(self, grid: Dim3) -> Optional[TileOrderFn]:
        """Custom tile processing order, or ``None`` for CUDA's default."""
        return None

    def first_block_posts(self) -> List[SemPost]:
        """Posts performed when the kernel's first block starts (wait-kernel release)."""
        return []

    def output_tile_key(self, tile: Dim3, grid: Dim3):
        """Key under which the output tile is recorded for race detection."""
        return (tile.x, tile.y, tile.z)


class NoSync(SyncInterface):
    """The StreamSync baseline: no fine-grained synchronization at all."""

    reorder_loads = False

    def plan_reads(
        self, tensor: str, rows: IndexRange, cols: IndexRange, batch: int = 0
    ) -> List[ReadPlanStep]:
        return [ReadPlanStep(rows=rows, cols=cols, batch=batch)]

    def posts_for(self, tile: Dim3, grid: Dim3) -> List[SemPost]:
        return []


@dataclass(frozen=True)
class StageGeometry:
    """How a kernel's output is tiled, as needed by a cuSync stage.

    A stage uses this to map element ranges of the kernel's output back to
    the tiles (and therefore semaphores) that produce them, and to fold the
    split-K grid dimension into per-tile post counts.
    """

    grid: Dim3
    #: Output rows covered by one tile (the kernel's ``tile_m``).
    tile_rows: int
    #: Output columns covered by one tile (the kernel's ``tile_n``).
    tile_cols: int
    #: Number of blocks that contribute to (and post) each logical tile.
    split_k: int = 1
    #: Number of independent batch entries folded into the grid's z dimension.
    batch: int = 1
    #: Name of the tensor the kernel writes.
    output: str = "C"

    @property
    def logical_grid(self) -> Dim3:
        """The grid of logical tiles: split-K contributions folded away."""
        return Dim3(self.grid.x, self.grid.y, self.batch)


class TiledKernel(ABC):
    """Common machinery for building a :class:`KernelLaunch` from a kernel.

    Subclasses provide the grid, the per-tile program and the kernel's
    resource usage; this base class handles occupancy and launch assembly.
    """

    #: Input tensors whose reads the bound stage guards.
    sync_inputs: Tuple[str, ...] = ()

    def __init__(
        self,
        name: str,
        cost_model: Optional[CostModel] = None,
        sync: Optional[SyncInterface] = None,
    ) -> None:
        self.name = name
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.sync = sync if sync is not None else NoSync()
        self.functional = False

    # ------------------------------------------------------------------
    # Plan-cache plumbing
    #
    # Executors re-point ``sync`` / ``cost_model`` / ``functional`` per run
    # (StreamSync strips synchronization, cuSync installs a stage, and only
    # the run decides ``functional``; code that builds block programs by
    # hand sets it itself).  Kernels that memoize per-tile plans or
    # durations derived from those attributes hook
    # :meth:`_invalidate_plan_caches` to drop stale entries.
    # ------------------------------------------------------------------
    @property
    def sync(self) -> SyncInterface:
        return self._sync

    @sync.setter
    def sync(self, value: SyncInterface) -> None:
        self._sync = value
        self._invalidate_plan_caches()

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    @cost_model.setter
    def cost_model(self, value: CostModel) -> None:
        self._cost_model = value
        # Occupancy depends on the model's arch and the kernel's fixed
        # resources only, so rebinding ``sync`` or ``functional`` keeps it.
        self._occupancy_cache: Optional[int] = None
        self._invalidate_plan_caches()

    @property
    def functional(self) -> bool:
        return self._functional

    @functional.setter
    def functional(self, value: bool) -> None:
        self._functional = value
        self._invalidate_plan_caches()

    def _invalidate_plan_caches(self) -> None:
        """Drop memoized plans/durations; caching kernels extend this."""
        #: Per-launch geometry tables (see :meth:`_block_tables`).
        self._tables: Optional[tuple] = None
        #: Epilogue segment per tile shape (see :meth:`_epilogue_segment`).
        self._epilogue_cache: dict = {}

    # ------------------------------------------------------------------
    # Structural identity
    # ------------------------------------------------------------------
    def structural_state(self) -> tuple:
        """Canonical, process-independent description of this kernel.

        :meth:`PipelineGraph.structural_fingerprint
        <repro.pipeline.graph.PipelineGraph.structural_fingerprint>` hashes
        this to key sweep results by *what the kernel computes*: two
        kernels built from equal configuration — in the same process or
        not — share cache and result-store entries.  The default covers
        kernels whose constructor state lives in public attributes
        (problem/config dataclasses, epilogues, module-level transforms):
        every non-underscore attribute is canonicalized, while the
        run-time bindings (``cost_model`` / ``sync`` / ``functional``) and
        memoized plan caches live in underscore attributes and are
        excluded.  Subclasses whose public attributes carry
        non-structural state must override this.

        Raises :class:`~repro.pipeline.structural.UnportableValueError`
        when the kernel holds values without a process-independent
        identity (e.g. closures); such graphs fall back to per-process
        cache keying.
        """
        from repro.pipeline.structural import canonicalize

        state = {
            name: value
            for name, value in vars(self).items()
            if not name.startswith("_")
        }
        klass = type(self)
        return ("kernel", f"{klass.__module__}.{klass.__qualname__}", canonicalize(state))

    # ------------------------------------------------------------------
    # Subclass responsibilities
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def grid(self) -> Dim3:
        """Launch grid of the kernel."""

    @property
    @abstractmethod
    def resources(self) -> KernelResources:
        """Per-block resource usage, used for occupancy."""

    @abstractmethod
    def build_block_program(self, tile: Dim3) -> ThreadBlockProgram:
        """Program of the thread block that computes ``tile``."""

    def stage_geometry(self) -> StageGeometry:
        """Output tiling description used when a cuSync stage wraps the kernel."""
        raise NotImplementedError(f"{type(self).__name__} does not support cuSync stages")

    # ------------------------------------------------------------------
    # Launch assembly
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Thread blocks resident per SM on the cost model's architecture."""
        if self._occupancy_cache is None:
            calculator = OccupancyCalculator(self.cost_model.arch)
            self._occupancy_cache = calculator.blocks_per_sm(self.resources)
        return self._occupancy_cache

    def build_launch(self, stream: Stream = DEFAULT_STREAM, issue_delay_us: float = 0.0) -> KernelLaunch:
        """Assemble the :class:`KernelLaunch` the simulator executes."""
        grid = self.grid
        return KernelLaunch(
            name=self.name,
            grid=grid,
            program_builder=self.build_block_program,
            occupancy=self.occupancy(),
            stream=stream,
            tile_order=self.sync.tile_order(grid),
            on_first_block_start=self.sync.first_block_posts(),
            issue_delay_us=issue_delay_us,
            tags={"kernel_class": type(self).__name__},
        )

    # ------------------------------------------------------------------
    # Helpers shared by subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def _clamp_range(r: IndexRange, limit: int) -> IndexRange:
        lo, hi = r
        return (max(0, lo), min(hi, limit))

    @staticmethod
    def _spans(count: int, size: int, limit: int) -> List[Tuple[IndexRange, int]]:
        """``(range, extent)`` of tiles ``0 .. count-1`` of ``size`` elements,
        clamped to ``limit``: a per-launch table indexed by tile coordinate."""
        spans = []
        for index in range(count):
            lo, hi = index * size, min((index + 1) * size, limit)
            spans.append(((lo, hi), hi - lo))
        return spans

    def _block_tables(self, m: int, n: int, k: int) -> tuple:
        """Per-launch geometry of an ``m x n`` output over a K dimension of
        ``k``, indexed by tile coordinate: ``(rows, tile_m)`` per tile row,
        ``(cols, tile_n)`` per tile column and ``(batch, k_range)`` per z."""
        geometry = self.stage_geometry()
        grid, split_k = geometry.grid, geometry.split_k
        splits = self._spans(split_k, ceil_div(k, split_k), k)
        self._tables = (
            self._spans(grid.y, geometry.tile_rows, m),
            self._spans(grid.x, geometry.tile_cols, n),
            [(z // split_k, splits[z % split_k][0]) for z in range(grid.z)],
        )
        return self._tables

    def _plan_operand(
        self, tensor: str, rows: IndexRange, cols: IndexRange, batch: int
    ) -> List[ReadPlanStep]:
        """Plan the reads of one input, consulting the stage if synchronized."""
        if tensor in self.sync_inputs:
            return self.sync.plan_reads(tensor, rows, cols, batch)
        return [ReadPlanStep(rows=rows, cols=cols, batch=batch)]

    def _plan_entry(
        self,
        entries: dict,
        key: Tuple[int, int],
        tensor: str,
        rows: IndexRange,
        cols: IndexRange,
        batch: int,
        k_axis: str,
        extent: int,
    ) -> tuple:
        """``(body key, plan)`` of one input, planned by the first block of
        the binding that reads it at ``key`` (its tile row or column, and z).

        The body key is the plan's id, unique while ``entries`` holds the
        plan, or the tile ``extent`` when the plan is one waitless step over
        the whole K range (``k_axis`` names the range that holds it), so such
        bodies are shared by tile shape.  An unsynchronized input keys by
        ``extent`` too, with no plan: the body plans it when it is built.
        """
        if tensor not in self.sync_inputs:
            return extent, None
        entry = entries.get(key)
        if entry is None:
            plan = self._plan_operand(tensor, rows, cols, batch)
            neutral = _neutral_plan(plan, cols if k_axis == "cols" else rows, k_axis)
            entry = entries[key] = (extent if neutral else id(plan), plan)
        return entry

    def _epilogue_duration_us(self, tile_m: int, tile_n: int, occupancy: int) -> float:
        """Epilogue time of one output tile; kernels with an epilogue define it."""
        raise NotImplementedError(f"{type(self).__name__} has no epilogue")

    def _epilogue_segment(
        self,
        tile: Dim3,
        shape: Tuple[int, int],
        output: str,
        posts: List[SemPost],
        compute=None,
        plan: Sequence[ReadPlanStep] = (),
    ) -> Segment:
        """The final segment: fused epilogue, output store and ``post``.

        ``posts`` are the block's ``posts_for`` its tile; ``plan`` is the
        read plan of an input the epilogue itself reads, whose waits guard
        the segment.  Blocks that read, post and compute nothing share one
        segment per tile ``shape``; in functional runs the segment also
        marks the ``output`` tile written.
        """
        shared = self._epilogue_cache.get(shape)
        if shared is None:
            duration = self._epilogue_duration_us(shape[0], shape[1], self.occupancy())
            shared = self._epilogue_cache[shape] = Segment(label="epilogue", duration_us=duration)
        functional = self._functional
        if not (posts or plan or functional):
            return shared
        writes = []
        if functional:
            writes = [TensorAccess(output, self.sync.output_tile_key(tile, self.grid))]
        return Segment(
            label="epilogue",
            waits=[wait for step in plan for wait in step.waits] if plan else [],
            duration_us=shared.duration_us,
            posts=posts,
            reads=[read for step in plan for read in step.reads] if plan else [],
            writes=writes,
            compute=compute,
        )

    def allocate_functional_tensors(self, memory: GlobalMemory) -> None:
        """Allocate the numpy tensors the kernel writes (functional mode).

        The default implementation does nothing; kernels that support
        functional simulation override it.
        """

    def reference_result(self, memory: GlobalMemory):
        """Reference (numpy) result of the kernel, for correctness tests."""
        raise NotImplementedError(f"{type(self).__name__} has no functional reference")


def _neutral_plan(plan: List[ReadPlanStep], span: IndexRange, axis: str) -> bool:
    """Whether ``plan`` is a single waitless step exactly covering ``span``.

    Such plans (unsynchronized operands, ``NoSync`` bindings) contribute
    nothing to the merge beyond the span itself, so bodies built from them
    are shared by tile shape rather than plan identity.
    """
    if len(plan) != 1:
        return False
    step = plan[0]
    if step.waits or step.reads:
        return False
    covered = step.cols if axis == "cols" else step.rows
    return covered == span
