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

This is the one implicit-GeMM main loop: :class:`~repro.kernels.conv2d.
Conv2dKernel` subclasses :class:`GemmKernel` and supplies only its operand
planning and the numpy views of its operands and output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.common.dim3 import Dim3, ceil_div
from repro.common.validation import check_positive
from repro.errors import SimulationError
from repro.gpu.arch import GpuArchitecture, TESLA_V100
from repro.gpu.costmodel import CostModel
from repro.gpu.kernel import Segment, ThreadBlockProgram, row_major_tiles
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

    Functional runs reach the operands and the output only through four
    hooks, which an implicit GeMM (Conv2D) overrides: :meth:`_output_shape`
    (the allocated output), :meth:`_output_matrix` (the output as ``[m, n]``
    per batch entry), :meth:`_a_slice` and :meth:`_b_slice`.
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
    ) -> None:
        super().__init__(name=name, cost_model=cost_model, sync=sync)
        self.problem = problem
        self.config = config if config is not None else choose_gemm_config(problem, self.cost_model.arch)
        self.epilogue = epilogue if epilogue is not None else Identity()
        self.sync_inputs = tuple(sync_inputs)
        self.gate_input = gate_input
        self.a_transform = a_transform
        self.a_transform_flops = a_transform_flops

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

    def _invalidate_plan_caches(self) -> None:
        # Keyed on tile shapes only: occupancy, element width, epilogue and
        # a_transform cost are fixed per kernel, and reassigning the inputs
        # they derive from (sync / cost_model / functional) lands here.
        super()._invalidate_plan_caches()
        self._chunk_duration_cache: dict = {}
        self._overlap_cache: dict = {}
        #: Timing runs: every block's program, in row-major launch order
        #: (see :meth:`build_block_program`).
        self._programs: Optional[List[ThreadBlockProgram]] = None
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
        """Program of the block that computes ``tile``.

        A timing binding builds every block's program in one pass on its
        first call (:meth:`_timing_programs`); each call, the first
        included, is then one index into that table, so blocks that behave
        alike get one shared, immutable program.  A functional binding
        builds each block's own program, because its compute closures
        capture the block's ranges.
        """
        if not self._functional:
            programs = self._programs
            if programs is None:
                programs = self._programs = self._timing_programs()
            grid = self._grid_cache  # set by the pass
            return programs[(tile.z * grid.y + tile.y) * grid.x + tile.x]
        problem = self.problem
        row_spans, col_spans, z_spans = self._tables or self._block_tables(problem.m, problem.n, problem.k)
        rows, tile_m_actual = row_spans[tile.y]
        cols, tile_n_actual = col_spans[tile.x]
        batch_index, k_range = z_spans[tile.z]
        segments, _ = self._body_segments_indexed(
            rows, cols, k_range, batch_index, tile_m_actual, tile_n_actual, self.occupancy()
        )
        sync = self._sync
        gate = ()
        if self.gate_input is not None and self.gate_input in self.sync_inputs:
            gate = sync.plan_reads(self.gate_input, rows, cols, batch_index)
        posts = sync.posts_for(tile, self.grid)
        compute = self._make_epilogue_compute(tile, batch_index, rows, cols)
        segments.append(
            self._epilogue_segment(tile, (tile_m_actual, tile_n_actual), problem.c, posts, compute, gate)
        )
        return ThreadBlockProgram(tile, segments)

    def _timing_programs(self) -> List[ThreadBlockProgram]:
        """Every block's timing program, in row-major launch order.

        One pass over the launch grid resolves, per split ``z``, each tile
        column's B entry and each tile row's A entry (:meth:`_plan_entry`),
        then per tile its body, its posts and its program.  Bodies are
        memoized by their operand entries, tile shape and split, so a
        StreamSync binding shares one body across its grid.  Blocks with
        the same body and the same posts list (a stage interns one per
        distinct set of semaphores) share one program; a block that posts
        nothing keys by body alone, and a gated block gets an epilogue of
        its own.
        """
        problem = self.problem
        grid = self.grid
        row_spans, col_spans, z_spans = self._tables or self._block_tables(problem.m, problem.n, problem.k)
        sync = self._sync
        gate_input = self.gate_input if self.gate_input in self.sync_inputs else None
        occupancy = self.occupancy()
        tiles = iter(row_major_tiles(grid))
        bodies: dict = {}
        bases: dict = {}
        shared: dict = {}
        programs: List[ThreadBlockProgram] = []
        for batch_index, k_range in z_spans:
            # A body key holds plan ids and its split's (k_range, batch), so
            # while these lists hold the split's plans no two keys collide.
            a_entries = [
                self._plan_entry(problem.a, rows, k_range, batch_index, "cols", tile_m)
                for rows, tile_m in row_spans
            ]
            b_entries = [
                self._plan_entry(problem.b, k_range, cols, batch_index, "rows", tile_n)
                for cols, tile_n in col_spans
            ]
            for (rows, tile_m), (a_key, a_plan) in zip(row_spans, a_entries):
                for (cols, tile_n), (b_key, b_plan) in zip(col_spans, b_entries):
                    tile = next(tiles)
                    key = (a_key, b_key, tile_m, tile_n, k_range, batch_index)
                    body = bodies.get(key)
                    if body is None:
                        body = bodies[key] = self._compose_body(
                            a_plan, b_plan, rows, cols, k_range, batch_index,
                            tile_m, tile_n, occupancy, a_key, bases,
                        )
                    posts = sync.posts_for(tile, grid)
                    if gate_input is not None:
                        gate = sync.plan_reads(gate_input, rows, cols, batch_index)
                        epilogue = self._epilogue_segment(tile, (tile_m, tile_n), problem.c, posts, None, gate)
                        programs.append(ThreadBlockProgram(tile, body + [epilogue]))
                        continue
                    program_key = (id(body), id(posts)) if posts else id(body)
                    program = shared.get(program_key)
                    if program is None:
                        epilogue = self._epilogue_segment(tile, (tile_m, tile_n), problem.c, posts)
                        program = shared[program_key] = ThreadBlockProgram(tile, body + [epilogue])
                    programs.append(program)
        return programs

    def _compose_body(
        self,
        a_plan: Optional[List[ReadPlanStep]],
        b_plan: Optional[List[ReadPlanStep]],
        rows: IndexRange,
        cols: IndexRange,
        k_range: IndexRange,
        batch_index: int,
        tile_m_actual: int,
        tile_n_actual: int,
        occupancy: int,
        a_key,
        bases: dict,
    ) -> List[Segment]:
        """Body segments for one distinct (A plan, B plan) combination.

        :func:`_merge_k_plans` splits the K loop at the single B step's row
        span and attaches the B waits to the chunk starting at
        ``b.rows[0]``; the chunk structure depends on the B step's *span*
        but not its waits.  The merged-and-priced A-side segment list is
        therefore cached once per (A plan, B span) in ``bases``, and every
        distinct B step with the same span composes one fresh segment in
        O(1) instead of re-running the plan merge: a TileSync consumer of
        both operands does not rebuild its waits per column tile.
        Multi-step B plans take the full merge, which is value-identical by
        construction; so does an unsynchronized B (``b_plan`` is ``None``),
        whose base entry would be keyed one-to-one with the body and never
        hit.  A ``None`` plan is planned by the merge.
        """
        if b_plan is None or len(b_plan) != 1:
            return self._body_segments_indexed(
                rows, cols, k_range, batch_index, tile_m_actual, tile_n_actual, occupancy,
                a_plan=a_plan, b_plan=b_plan,
            )[0]
        b_step = b_plan[0]
        base_key = (a_key, tile_m_actual, tile_n_actual, k_range, batch_index, b_step.rows)
        entry = bases.get(base_key)
        if entry is None:
            # Same chunk boundaries as the full merge (the neutral step
            # spans exactly what the real B step spans), no B waits yet.
            neutral = [ReadPlanStep(rows=b_step.rows, cols=cols, batch=batch_index)]
            segments, positions = self._body_segments_indexed(
                rows, cols, k_range, batch_index, tile_m_actual, tile_n_actual, occupancy,
                a_plan=a_plan, b_plan=neutral,
            )
            entry = bases[base_key] = (segments, positions)
        base, chunk_positions = entry
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
            b_plan = self._plan_operand(problem.b, k_range, cols, batch_index)
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
        problem = self.problem
        duration = self.cost_model.gemm_epilogue_us(tile_m, tile_n, occupancy, problem.element_bytes)
        elements = tile_m * tile_n
        if self.epilogue.flops_per_element:
            duration += self.cost_model.compute_time_us(
                elements * self.epilogue.flops_per_element, occupancy, precision="fp32"
            )
        if self.epilogue.extra_reads_per_element:
            duration += self.cost_model.memory_time_us(
                elements * self.epilogue.extra_reads_per_element * problem.element_bytes, occupancy
            )
        return duration

    # ------------------------------------------------------------------
    # Functional (numpy) computation
    # ------------------------------------------------------------------
    def allocate_functional_tensors(self, memory: GlobalMemory) -> None:
        """Allocate the zero-initialized output tensor in global memory."""
        problem = self.problem
        if not memory.has_tensor(problem.c):
            memory.store_tensor(problem.c, np.zeros(self._output_shape(), dtype=np.float32))
        if self.config.split_k > 1:
            grid = self.grid
            memory.store_tensor(
                self._arrivals_tensor, np.zeros((problem.batch, grid.y, grid.x), dtype=np.int64)
            )

    @property
    def _arrivals_tensor(self) -> str:
        """Functional runs: per output tile, the split-K blocks whose epilogue ran."""
        return f"{self.problem.c}.split_k_arrivals"

    def _output_shape(self) -> Tuple[int, ...]:
        """Shape of the output tensor a functional run allocates."""
        problem = self.problem
        return (problem.m, problem.n) if problem.batch == 1 else (problem.batch, problem.m, problem.n)

    def _output_matrix(self, memory: GlobalMemory, batch: int) -> np.ndarray:
        """Batch entry ``batch`` of the output as a writable ``[m, n]`` view."""
        return _matrix(memory.tensor(self.problem.c), batch)

    def _a_slice(self, memory: GlobalMemory, batch: int, rows: IndexRange, k_range: IndexRange) -> np.ndarray:
        """``[rows, k_range]`` slice of batch entry ``batch`` of A."""
        return _matrix(memory.tensor(self.problem.a), batch)[rows[0]:rows[1], k_range[0]:k_range[1]]

    def _b_slice(self, memory: GlobalMemory, batch: int, k_range: IndexRange, cols: IndexRange) -> np.ndarray:
        """``[k_range, cols]`` slice of batch entry ``batch`` of B."""
        return _matrix(memory.tensor(self.problem.b), batch)[k_range[0]:k_range[1], cols[0]:cols[1]]

    def _make_chunk_compute(self, batch: int, rows: IndexRange, cols: IndexRange, k_range: IndexRange):
        def compute(memory: GlobalMemory) -> None:
            a = self._a_slice(memory, batch, rows, k_range)
            b = self._b_slice(memory, batch, k_range, cols)
            if self.a_transform is not None:
                a = self.a_transform(a.astype(np.float32), memory, rows, k_range, batch)
            partial = a.astype(np.float32) @ b.astype(np.float32)
            self._output_matrix(memory, batch)[rows[0]:rows[1], cols[0]:cols[1]] += partial

        return compute

    def _make_epilogue_compute(self, tile: Dim3, batch: int, rows: IndexRange, cols: IndexRange):
        epilogue = self.epilogue
        split_k = self.config.split_k
        arrivals_tensor = self._arrivals_tensor

        def compute(memory: GlobalMemory) -> None:
            if isinstance(epilogue, Identity):
                return
            if split_k > 1:
                # Every split adds its partial sum into C; only the tile's
                # last split to arrive sees the full sum.
                arrivals = memory.tensor(arrivals_tensor)
                arrivals[batch, tile.y, tile.x] += 1
                if arrivals[batch, tile.y, tile.x] < split_k:
                    return
            c = self._output_matrix(memory, batch)
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


def _matrix(tensor: np.ndarray, batch: int) -> np.ndarray:
    """Batch entry ``batch`` of a ``[batch, m, n]`` tensor; an ``[m, n]`` one as is."""
    return tensor[batch] if tensor.ndim == 3 else tensor


class _KChunk(NamedTuple):
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
