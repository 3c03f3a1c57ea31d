"""Tiled Generalized Matrix Multiplication (GeMM) kernel.

The structure follows CUTLASS-style GeMMs (and the kernel sketch of the
paper's Figure 4a): the output ``C = epilogue(A @ B)`` is partitioned into
``tile_m x tile_n`` tiles, one per thread block; each block iterates over
the K dimension in chunks, loading a slice of A and a slice of B per chunk;
optionally the K dimension is additionally split across ``split_k`` blocks
(CUTLASS split-K, the z grid dimension in the paper's Table IV).

cuSync integration happens at exactly the call sites the paper adds to
CUTLASS (Table III): the main loop asks the stage how to split its K
iteration and which waits guard each chunk (``stage.wait`` before tile
loads), and the block posts its output tile when done (``stage.post``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.dim3 import Dim3, ceil_div
from repro.common.validation import check_positive
from repro.errors import SimulationError
from repro.gpu.arch import GpuArchitecture, TESLA_V100
from repro.gpu.costmodel import CostModel
from repro.gpu.kernel import Segment, TensorAccess, ThreadBlockProgram
from repro.gpu.memory import GlobalMemory
from repro.gpu.occupancy import KernelResources, OccupancyCalculator
from repro.kernels.base import IndexRange, ReadPlanStep, StageGeometry, SyncInterface, TiledKernel
from repro.kernels.epilogue import Epilogue, Identity


@dataclass(frozen=True)
class GemmProblem:
    """One (possibly batched) GeMM: ``C[b] = A[b] @ B[b]``.

    ``a``, ``b`` and ``c`` are the names under which the operands live in
    simulated global memory; names are what dependencies are declared on.
    """

    m: int
    n: int
    k: int
    a: str = "A"
    b: str = "B"
    c: str = "C"
    batch: int = 1
    element_bytes: int = 2

    def __post_init__(self) -> None:
        check_positive("m", self.m)
        check_positive("n", self.n)
        check_positive("k", self.k)
        check_positive("batch", self.batch)

    @property
    def flops(self) -> float:
        """Total floating point operations of the problem."""
        return 2.0 * self.batch * self.m * self.n * self.k


@dataclass(frozen=True)
class GemmConfig:
    """Tiling configuration of a GeMM kernel (the CUTLASS "kernel config")."""

    tile_m: int = 128
    tile_n: int = 128
    tile_k: int = 32
    split_k: int = 1
    threads_per_block: int = 256
    pipeline_stages: int = 2

    def __post_init__(self) -> None:
        check_positive("tile_m", self.tile_m)
        check_positive("tile_n", self.tile_n)
        check_positive("tile_k", self.tile_k)
        check_positive("split_k", self.split_k)

    def resources(self, element_bytes: int = 2) -> KernelResources:
        """Resource usage implied by the tile shape.

        Shared memory holds double-buffered A and B slices; registers hold
        the per-thread accumulators plus addressing/operand registers.  This
        reproduces the occupancy differences the paper's Table I relies on
        (a 256x128 tile reaches occupancy 2 on V100, a 256x256 tile only 1).
        """
        shared_memory = (
            (self.tile_m + self.tile_n) * self.tile_k * element_bytes * self.pipeline_stages
        )
        accumulators = self.tile_m * self.tile_n // self.threads_per_block
        registers = min(255, accumulators // 2 + 48)
        return KernelResources(
            threads_per_block=self.threads_per_block,
            registers_per_thread=registers,
            shared_memory_per_block=shared_memory,
        )


def choose_gemm_config(
    problem: GemmProblem,
    arch: GpuArchitecture = TESLA_V100,
    max_split_k: int = 4,
) -> GemmConfig:
    """Pick a tile configuration the way the paper's CUTLASS setup does.

    The goals, in order: (i) cover the M dimension with as few row tiles as
    possible (small inference batches fit in one), (ii) prefer large 256-wide
    column tiles, shrinking to 128 when that would leave the GPU mostly
    idle, and (iii) use split-K to raise the number of thread blocks toward
    a full wave when there are few output tiles.
    """
    if problem.m >= 256:
        tile_m = 256
    elif problem.m > 128:
        tile_m = 256
    elif problem.m > 64:
        tile_m = 128
    else:
        tile_m = 64
    tile_m = min(tile_m, 256)

    calculator = OccupancyCalculator(arch)

    def blocks_for(tile_n: int, split_k: int) -> int:
        grid_x = ceil_div(problem.n, tile_n)
        grid_y = ceil_div(problem.m, tile_m)
        return grid_x * grid_y * problem.batch * split_k

    best: Optional[Tuple[float, GemmConfig]] = None
    for tile_n in (256, 128, 64):
        if tile_n > problem.n and tile_n != 64:
            continue
        for split_k in range(1, max_split_k + 1):
            if split_k > 1 and problem.k // split_k < 4 * 32:
                continue
            config = GemmConfig(tile_m=tile_m, tile_n=tile_n, tile_k=32, split_k=split_k)
            occupancy = calculator.blocks_per_sm(config.resources(problem.element_bytes))
            per_wave = arch.blocks_per_wave(occupancy)
            natural_blocks = blocks_for(tile_n, 1)
            if split_k > 1 and natural_blocks >= per_wave:
                # Split-K exists to raise parallelism when there are too few
                # output tiles; never use it once a wave is already full.
                continue
            blocks = blocks_for(tile_n, split_k)
            waves = blocks / per_wave
            utilization = blocks / (math.ceil(waves) * per_wave) if blocks else 0.0
            # Penalize wide splits (extra reduction traffic) and very small
            # tiles (lower per-block efficiency).
            penalty = 0.02 * (split_k - 1) + (0.05 if tile_n == 64 else 0.0)
            score = utilization - penalty
            if best is None or score > best[0] + 1e-9:
                best = (score, config)
    assert best is not None
    return best[1]


class GemmKernel(TiledKernel):
    """A tiled GeMM kernel runnable on the simulator.

    Parameters
    ----------
    sync_inputs:
        Names of the operands whose tiles are produced by an earlier kernel
        in the pipeline and therefore must be guarded with ``stage.wait``.
        Operands not listed are assumed resident before the kernel starts
        (weights, activations of previous layers).
    gate_input:
        Optional name of an extra tensor read element-wise by the epilogue
        (LLaMA's SwiGLU reads ``XV``); it is guarded like a synchronized
        input when listed in ``sync_inputs``.
    a_transform:
        Optional element-wise transform applied to each loaded slice of the
        A operand before the multiply-accumulate (LLaMA fuses
        ``Swish(XW1) * XV`` into its third GeMM this way).  The callable
        receives ``(values, memory, rows, k_range, batch)`` and returns the
        transformed slice; ``a_transform_flops`` models its per-element cost.
    """

    def __init__(
        self,
        name: str,
        problem: GemmProblem,
        config: Optional[GemmConfig] = None,
        epilogue: Optional[Epilogue] = None,
        sync: Optional[SyncInterface] = None,
        sync_inputs: Tuple[str, ...] = (),
        gate_input: Optional[str] = None,
        a_transform=None,
        a_transform_flops: float = 0.0,
        cost_model: Optional[CostModel] = None,
        functional: bool = False,
    ) -> None:
        super().__init__(name=name, cost_model=cost_model, sync=sync, functional=functional)
        self.problem = problem
        self.config = config if config is not None else choose_gemm_config(problem, self.cost_model.arch)
        self.epilogue = epilogue if epilogue is not None else Identity()
        self.sync_inputs = tuple(sync_inputs)
        self.gate_input = gate_input
        self.a_transform = a_transform
        self.a_transform_flops = a_transform_flops
        self._occupancy_cache: Optional[int] = None
        self._invalidate_plan_caches()
        if functional and self.config.split_k > 1 and not isinstance(self.epilogue, Identity):
            raise SimulationError(
                "functional simulation of a split-K GeMM with a fused epilogue is not supported: "
                "the epilogue would be applied to partial sums"
            )

    # ------------------------------------------------------------------
    # TiledKernel interface
    # ------------------------------------------------------------------
    @property
    def grid(self) -> Dim3:
        grid = self._grid_cache
        if grid is None:
            cfg = self.config
            grid = self._grid_cache = Dim3(
                ceil_div(self.problem.n, cfg.tile_n),
                ceil_div(self.problem.m, cfg.tile_m),
                self.problem.batch * cfg.split_k,
            )
        return grid

    @property
    def resources(self) -> KernelResources:
        return self.config.resources(self.problem.element_bytes)

    def occupancy(self) -> int:
        if self._occupancy_cache is None:
            self._occupancy_cache = super().occupancy()
        return self._occupancy_cache

    def _invalidate_plan_caches(self) -> None:
        # Keyed on tile shapes only: occupancy, element width, epilogue and
        # a_transform cost are fixed per kernel, and reassigning the inputs
        # they derive from (sync / cost_model / functional) lands here.
        self._occupancy_cache = None
        self._chunk_duration_cache: dict = {}
        self._epilogue_duration_cache: dict = {}
        self._overlap_cache: dict = {}
        #: Shared main-loop segment lists, keyed by the ranges that actually
        #: influence them (see :meth:`build_block_program`).
        self._body_segment_cache: dict = {}
        #: Base main-loop segments *without* the B operand's waits, keyed by
        #: the A-side plan and the B step's span.  When both operands are
        #: synchronized the full body differs per column tile solely in the
        #: waits the B plan contributes, so the expensive plan merge runs
        #: once per base key and each column tile composes in O(1) (see
        #: :meth:`_cached_body` / :meth:`_compose_body`).
        self._base_body_cache: dict = {}
        self._grid_cache: Optional[Dim3] = None

    def stage_geometry(self) -> StageGeometry:
        return StageGeometry(
            grid=self.grid,
            tile_rows=self.config.tile_m,
            tile_cols=self.config.tile_n,
            split_k=self.config.split_k,
            batch=self.problem.batch,
            output=self.problem.c,
        )

    # ------------------------------------------------------------------
    # Block program construction
    # ------------------------------------------------------------------
    def build_block_program(self, tile: Dim3) -> ThreadBlockProgram:
        problem, cfg = self.problem, self.config
        occupancy = self.occupancy()

        batch_index = tile.z // cfg.split_k
        split_index = tile.z % cfg.split_k

        rows = self._clamp_range((tile.y * cfg.tile_m, (tile.y + 1) * cfg.tile_m), problem.m)
        cols = self._clamp_range((tile.x * cfg.tile_n, (tile.x + 1) * cfg.tile_n), problem.n)
        k_per_split = ceil_div(problem.k, cfg.split_k)
        k_range = self._clamp_range(
            (split_index * k_per_split, (split_index + 1) * k_per_split), problem.k
        )

        tile_m_actual = rows[1] - rows[0]
        tile_n_actual = cols[1] - cols[0]

        # Main-loop segments carry no per-tile state beyond what their read
        # plans dictate, and the plans themselves are memoized (shared
        # lists) by the producing stage.  Outside functional mode (whose
        # compute closures capture absolute ranges) the immutable segment
        # list can therefore be shared by every block whose operand plans
        # are identical — build_program does O(1) planning work per block
        # after the first tile of each distinct plan combination.
        if self.functional:
            body = self._body_segments(
                rows, cols, k_range, batch_index, tile_m_actual, tile_n_actual, occupancy
            )
        else:
            body = self._cached_body(
                rows, cols, k_range, batch_index, tile_m_actual, tile_n_actual, occupancy
            )

        segments = list(body)
        segments.extend(
            self._epilogue_segments(tile, batch_index, rows, cols, tile_m_actual, tile_n_actual, occupancy)
        )
        return ThreadBlockProgram(tile=tile, segments=segments)

    @staticmethod
    def _neutral_plan(plan: List[ReadPlanStep], span: IndexRange, axis: str) -> bool:
        """Whether ``plan`` is a single waitless step exactly covering ``span``.

        Such plans (unsynchronized operands, ``NoSync`` bindings) contribute
        nothing to the merge beyond the span itself, so bodies built from
        them are shared by tile shape rather than plan identity.
        """
        if len(plan) != 1:
            return False
        step = plan[0]
        if step.waits or step.reads:
            return False
        covered = step.cols if axis == "cols" else step.rows
        return covered == span

    def _cached_body(
        self,
        rows: IndexRange,
        cols: IndexRange,
        k_range: IndexRange,
        batch_index: int,
        tile_m_actual: int,
        tile_n_actual: int,
        occupancy: int,
    ) -> List[Segment]:
        """Memoized body segments, keyed by the operand plans' identities.

        Operand read plans are memoized shared lists (the producing stage
        caches them per distinct requested range), so their object
        identities key the body cache exactly: equal ids mean equal plans.
        Each cache value retains its plan lists, which keeps their ids from
        being recycled while the entry lives.  Waitless single-step plans
        (unsynchronized operands and ``NoSync`` bindings, which return a
        fresh plain step per call) collapse to the tile extent instead, so
        a StreamSync binding shares one body across its whole grid.
        """
        problem = self.problem
        # Unsynchronized operands need no plan at all to derive the key (a
        # fresh plain step per block would only be allocation churn); their
        # plan is materialized lazily on a cache miss.
        a_plan = (
            self._plan_operand(problem.a, rows, k_range, batch_index)
            if problem.a in self.sync_inputs
            else None
        )
        b_plan = (
            self._plan_operand(problem.b, k_range, cols, batch_index, rows_are_k=True)
            if problem.b in self.sync_inputs
            else None
        )
        a_key = (
            tile_m_actual
            if a_plan is None or self._neutral_plan(a_plan, k_range, "cols")
            else id(a_plan)
        )
        b_key = (
            tile_n_actual
            if b_plan is None or self._neutral_plan(b_plan, k_range, "rows")
            else id(b_plan)
        )
        key = (a_key, b_key, tile_m_actual, tile_n_actual, k_range, batch_index)
        entry = self._body_segment_cache.get(key)
        if entry is None:
            built_a = (
                a_plan
                if a_plan is not None
                else [ReadPlanStep(rows=rows, cols=k_range, batch=batch_index)]
            )
            built_b = (
                b_plan
                if b_plan is not None
                else [ReadPlanStep(rows=k_range, cols=cols, batch=batch_index)]
            )
            segments = self._compose_body(
                built_a, built_b, rows, cols, k_range, batch_index,
                tile_m_actual, tile_n_actual, occupancy, a_key,
            )
            entry = (segments, a_plan, b_plan)
            self._body_segment_cache[key] = entry
        return entry[0]

    def _compose_body(
        self,
        a_plan: List[ReadPlanStep],
        b_plan: List[ReadPlanStep],
        rows: IndexRange,
        cols: IndexRange,
        k_range: IndexRange,
        batch_index: int,
        tile_m_actual: int,
        tile_n_actual: int,
        occupancy: int,
        a_key,
    ) -> List[Segment]:
        """Body segments for one distinct (A plan, B plan) combination.

        :func:`_merge_k_plans` splits the K loop at the single B step's row
        span and attaches the B waits to the chunk starting at
        ``b.rows[0]``; the chunk structure depends on the B step's *span*
        but not its waits.  The merged-and-priced A-side segment list is
        therefore cached once per (A plan, B span) — ``_base_body_cache`` —
        and every distinct B step with the same span composes one fresh
        segment in O(1) instead of re-running the plan merge: a TileSync
        consumer of both operands no longer rebuilds its waits per column
        tile.  Multi-step B plans take the full merge, which is
        value-identical by construction.
        """
        if len(b_plan) != 1:
            return self._body_segments_indexed(
                rows, cols, k_range, batch_index, tile_m_actual, tile_n_actual, occupancy,
                a_plan=a_plan, b_plan=b_plan,
            )[0]
        b_step = b_plan[0]
        base_key = (a_key, tile_m_actual, tile_n_actual, k_range, batch_index, b_step.rows)
        entry = self._base_body_cache.get(base_key)
        if entry is None:
            # Same chunk boundaries as the full merge (the neutral step
            # spans exactly what the real B step spans), no B waits yet.
            neutral = [ReadPlanStep(rows=b_step.rows, cols=cols, batch=batch_index)]
            segments, positions = self._body_segments_indexed(
                rows, cols, k_range, batch_index, tile_m_actual, tile_n_actual, occupancy,
                a_plan=a_plan, b_plan=neutral,
            )
            entry = (segments, positions, a_plan)
            self._base_body_cache[base_key] = entry
        base, chunk_positions, _ = entry
        if not b_step.waits and not b_step.reads:
            return base
        position = chunk_positions.get(b_step.rows[0])
        if position is None:
            # No chunk starts at the B step's row start (span outside this
            # split's K range): the merge drops the B waits entirely.
            return base
        target = base[position]
        if self.sync.reorder_loads and b_step.waits and not target.waits:
            # The overlap credit would first appear with the B waits; rare
            # (A unsynchronized under reorder-loads) — take the full merge.
            return self._body_segments_indexed(
                rows, cols, k_range, batch_index, tile_m_actual, tile_n_actual, occupancy,
                a_plan=a_plan, b_plan=b_plan,
            )[0]
        composed = list(base)
        composed[position] = Segment(
            label=target.label,
            waits=list(target.waits) + list(b_step.waits),
            duration_us=target.duration_us,
            overlappable_us=target.overlappable_us,
            reads=list(target.reads) + list(b_step.reads),
        )
        return composed

    def _body_segments(
        self,
        rows: IndexRange,
        cols: IndexRange,
        k_range: IndexRange,
        batch_index: int,
        tile_m_actual: int,
        tile_n_actual: int,
        occupancy: int,
    ) -> List[Segment]:
        """The main-loop segments of one block (everything but the epilogue)."""
        return self._body_segments_indexed(
            rows, cols, k_range, batch_index, tile_m_actual, tile_n_actual, occupancy,
        )[0]

    def _body_segments_indexed(
        self,
        rows: IndexRange,
        cols: IndexRange,
        k_range: IndexRange,
        batch_index: int,
        tile_m_actual: int,
        tile_n_actual: int,
        occupancy: int,
        a_plan: Optional[List[ReadPlanStep]] = None,
        b_plan: Optional[List[ReadPlanStep]] = None,
    ) -> Tuple[List[Segment], Dict[int, int]]:
        """Body segments plus a map of chunk K start → segment position."""
        # Ask the stage how the main loop must be chunked for each operand.
        # A is read as [rows, k], B as [k, cols]; only synchronized operands
        # get real waits — plan_reads on a non-dependent operand is a no-op.
        # ``a_plan`` / ``b_plan`` override the operand plans (the shared
        # body path passes already-derived, possibly neutralized plans; see
        # :meth:`_compose_body`).
        problem = self.problem
        if a_plan is None:
            a_plan = self._plan_operand(problem.a, rows, k_range, batch_index)
        if b_plan is None:
            b_plan = self._plan_operand(problem.b, k_range, cols, batch_index, rows_are_k=True)
        chunks = _merge_k_plans(a_plan, b_plan, k_range)

        reorder_loads = self.sync.reorder_loads
        segments: List[Segment] = []
        chunk_positions: Dict[int, int] = {}
        for chunk in chunks:
            chunk_positions[chunk.k_range[0]] = len(segments)
            k_lo, k_hi = chunk.k_range
            chunk_k = k_hi - k_lo
            duration = self._chunk_duration_us(tile_m_actual, tile_n_actual, chunk_k, occupancy)
            waits = list(chunk.waits)
            reads = list(chunk.reads)
            # Reorder-loads optimization (Section IV-C): while waiting on the
            # synchronized operand's tile, the block can already load the
            # other operand's slice from global memory; that load time is
            # credited against any actual busy-wait time by the simulator.
            overlappable = 0.0
            if reorder_loads and waits:
                overlappable = self._overlap_credit_us(tile_n_actual, chunk_k, occupancy)

            compute = None
            if self.functional:
                compute = self._make_chunk_compute(batch_index, rows, cols, (k_lo, k_hi))
            segments.append(
                Segment(
                    label=f"k[{k_lo}:{k_hi}]",
                    waits=waits,
                    duration_us=duration,
                    overlappable_us=overlappable,
                    reads=reads,
                    compute=compute,
                )
            )
        return segments, chunk_positions

    # ------------------------------------------------------------------
    # Memoized per-shape durations
    #
    # A kernel sees only a handful of distinct (tile_m, tile_n, chunk_k)
    # shapes across its whole grid (interior tiles plus the clamped edge
    # tiles), so after the first few blocks every duration is a dict hit and
    # ``build_block_program`` does no cost-model arithmetic per block.
    # ------------------------------------------------------------------
    def _chunk_duration_us(self, tile_m: int, tile_n: int, chunk_k: int, occupancy: int) -> float:
        key = (tile_m, tile_n, chunk_k)
        duration = self._chunk_duration_cache.get(key)
        if duration is None:
            duration = self.cost_model.gemm_mainloop_chunk_us(
                tile_m, tile_n, chunk_k, occupancy, self.problem.element_bytes
            )
            if self.a_transform_flops:
                duration += self.cost_model.compute_time_us(
                    tile_m * chunk_k * self.a_transform_flops, occupancy, precision="fp32"
                )
            self._chunk_duration_cache[key] = duration
        return duration

    def _overlap_credit_us(self, tile_n: int, chunk_k: int, occupancy: int) -> float:
        key = (tile_n, chunk_k)
        credit = self._overlap_cache.get(key)
        if credit is None:
            credit = self.cost_model.memory_time_us(
                chunk_k * tile_n * self.problem.element_bytes, occupancy
            )
            self._overlap_cache[key] = credit
        return credit

    def _epilogue_duration_us(self, tile_m: int, tile_n: int, occupancy: int) -> float:
        key = (tile_m, tile_n)
        duration = self._epilogue_duration_cache.get(key)
        if duration is None:
            problem = self.problem
            duration = self.cost_model.gemm_epilogue_us(
                tile_m, tile_n, occupancy, problem.element_bytes
            )
            elements = tile_m * tile_n
            if self.epilogue.flops_per_element:
                duration += self.cost_model.compute_time_us(
                    elements * self.epilogue.flops_per_element, occupancy, precision="fp32"
                )
            if self.epilogue.extra_reads_per_element:
                duration += self.cost_model.memory_time_us(
                    elements * self.epilogue.extra_reads_per_element * problem.element_bytes, occupancy
                )
            self._epilogue_duration_cache[key] = duration
        return duration

    def _plan_operand(
        self,
        tensor: str,
        rows: IndexRange,
        cols: IndexRange,
        batch_index: int,
        rows_are_k: bool = False,
    ) -> List[ReadPlanStep]:
        """Plan the reads of one operand, consulting the stage if synchronized."""
        if tensor in self.sync_inputs:
            return self.sync.plan_reads(tensor, rows, cols, batch_index)
        return [ReadPlanStep(rows=rows, cols=cols, batch=batch_index)]

    def _epilogue_segments(
        self,
        tile: Dim3,
        batch_index: int,
        rows: IndexRange,
        cols: IndexRange,
        tile_m_actual: int,
        tile_n_actual: int,
        occupancy: int,
    ) -> List[Segment]:
        """The final segment: fused epilogue, output store and ``post``."""
        problem = self.problem
        duration = self._epilogue_duration_us(tile_m_actual, tile_n_actual, occupancy)

        waits = []
        reads = []
        if self.gate_input is not None and self.gate_input in self.sync_inputs:
            for step in self.sync.plan_reads(self.gate_input, rows, cols, batch_index):
                waits.extend(step.waits)
                reads.extend(step.reads)

        posts = self.sync.posts_for(tile, self.grid)
        writes = [TensorAccess(problem.c, self.sync.output_tile_key(tile, self.grid))]

        compute = None
        if self.functional:
            compute = self._make_epilogue_compute(batch_index, rows, cols)

        return [
            Segment(
                label="epilogue",
                waits=waits,
                duration_us=duration,
                posts=posts,
                reads=reads,
                writes=writes,
                compute=compute,
            )
        ]

    # ------------------------------------------------------------------
    # Functional (numpy) computation
    # ------------------------------------------------------------------
    def allocate_functional_tensors(self, memory: GlobalMemory) -> None:
        """Allocate the zero-initialized output tensor in global memory."""
        problem = self.problem
        shape = (problem.m, problem.n) if problem.batch == 1 else (problem.batch, problem.m, problem.n)
        if not memory.has_tensor(problem.c):
            memory.store_tensor(problem.c, np.zeros(shape, dtype=np.float32))

    def _operand_slice(
        self, memory: GlobalMemory, name: str, batch: int, rows: IndexRange, cols: IndexRange
    ) -> np.ndarray:
        tensor = memory.tensor(name)
        if tensor.ndim == 3:
            return tensor[batch, rows[0]:rows[1], cols[0]:cols[1]]
        return tensor[rows[0]:rows[1], cols[0]:cols[1]]

    def _make_chunk_compute(self, batch: int, rows: IndexRange, cols: IndexRange, k_range: IndexRange):
        problem = self.problem

        def compute(memory: GlobalMemory) -> None:
            a = self._operand_slice(memory, problem.a, batch, rows, k_range)
            b = self._operand_slice(memory, problem.b, batch, k_range, cols)
            if self.a_transform is not None:
                a = self.a_transform(a.astype(np.float32), memory, rows, k_range, batch)
            c = memory.tensor(problem.c)
            partial = a.astype(np.float32) @ b.astype(np.float32)
            if c.ndim == 3:
                c[batch, rows[0]:rows[1], cols[0]:cols[1]] += partial
            else:
                c[rows[0]:rows[1], cols[0]:cols[1]] += partial

        return compute

    def _make_epilogue_compute(self, batch: int, rows: IndexRange, cols: IndexRange):
        problem = self.problem
        epilogue = self.epilogue

        def compute(memory: GlobalMemory) -> None:
            if isinstance(epilogue, Identity):
                return
            c = memory.tensor(problem.c)
            if c.ndim == 3:
                tile_values = c[batch, rows[0]:rows[1], cols[0]:cols[1]]
                c[batch, rows[0]:rows[1], cols[0]:cols[1]] = epilogue.apply(
                    tile_values, memory, rows, cols, batch
                )
            else:
                tile_values = c[rows[0]:rows[1], cols[0]:cols[1]]
                c[rows[0]:rows[1], cols[0]:cols[1]] = epilogue.apply(tile_values, memory, rows, cols, batch)

        return compute

    def reference_result(self, memory: GlobalMemory) -> np.ndarray:
        """Numpy reference of the full problem, for correctness tests."""
        problem = self.problem
        a = memory.tensor(problem.a).astype(np.float32)
        b = memory.tensor(problem.b).astype(np.float32)
        if self.a_transform is not None:
            if a.ndim != 2:
                raise SimulationError("reference_result with a_transform requires batch == 1")
            a = self.a_transform(a, memory, (0, problem.m), (0, problem.k), 0)
        result = a @ b
        if isinstance(self.epilogue, Identity):
            return result
        if problem.batch == 1:
            return self.epilogue.apply(result, memory, (0, problem.m), (0, problem.n), 0)
        out = np.empty_like(result)
        for batch in range(problem.batch):
            out[batch] = self.epilogue.apply(
                result[batch], memory, (0, problem.m), (0, problem.n), batch
            )
        return out


@dataclass(frozen=True)
class _KChunk:
    """A merged main-loop chunk with the waits/reads that guard it."""

    k_range: IndexRange
    waits: Tuple = ()
    reads: Tuple = ()


def _merge_k_plans(
    a_plan: List[ReadPlanStep], b_plan: List[ReadPlanStep], k_range: IndexRange
) -> List[_KChunk]:
    """Merge per-operand read plans into a single K-chunk sequence.

    A's plan splits the K dimension via its column ranges, B's via its row
    ranges.  The merged chunks honour both: a chunk starts wherever either
    plan starts a new guarded step, and carries that step's waits.
    """
    # Fast path for the overwhelmingly common shape: both operands answer
    # with a single step covering the whole K range (unsynchronized inputs
    # and RowSync dependences).  The general merge below would produce
    # exactly one chunk carrying A's waits then B's waits.
    if len(a_plan) == 1 and len(b_plan) == 1 and k_range[1] > k_range[0]:
        a_step, b_step = a_plan[0], b_plan[0]
        if a_step.cols == k_range and b_step.rows == k_range:
            return [
                _KChunk(
                    k_range=k_range,
                    waits=tuple(a_step.waits) + tuple(b_step.waits),
                    reads=tuple(a_step.reads) + tuple(b_step.reads),
                )
            ]
    boundaries = {k_range[0], k_range[1]}
    a_starts = {}
    b_starts = {}
    for step in a_plan:
        boundaries.add(step.cols[0])
        boundaries.add(step.cols[1])
        a_starts[step.cols[0]] = step
    for step in b_plan:
        boundaries.add(step.rows[0])
        boundaries.add(step.rows[1])
        b_starts[step.rows[0]] = step

    ordered = sorted(b for b in boundaries if k_range[0] <= b <= k_range[1])
    chunks: List[_KChunk] = []
    for lo, hi in zip(ordered, ordered[1:]):
        if hi <= lo:
            continue
        waits: List = []
        reads: List = []
        if lo in a_starts:
            waits.extend(a_starts[lo].waits)
            reads.extend(a_starts[lo].reads)
        if lo in b_starts:
            waits.extend(b_starts[lo].waits)
            reads.extend(b_starts[lo].reads)
        chunks.append(_KChunk(k_range=(lo, hi), waits=tuple(waits), reads=tuple(reads)))
    if not chunks:
        chunks.append(_KChunk(k_range=k_range))
    return chunks
