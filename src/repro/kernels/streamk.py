"""Stream-K GeMM decomposition (the paper's strongest baseline).

Stream-K [Osama et al., PPoPP'23] improves final-wave utilization of GeMM by
*work-centric* decomposition: instead of one thread block per output tile,
the MAC-loop iterations of the tiles that would form a partial wave are
divided evenly among one full wave of thread blocks.  Blocks that share a
tile each produce a partial accumulator in global memory, and a fix-up pass
reduces the partials — the extra global traffic the paper cites as
Stream-K's drawback (Section V-H).

The decomposition follows the two-kernel scheme the paper describes:

* a *data-parallel* kernel computes the tiles belonging to full waves the
  classic way (one block per tile), and
* a *Stream-K* kernel covers the remaining tiles with exactly one wave of
  blocks, splitting iterations evenly and paying the fix-up cost.

Because Stream-K is a single-kernel optimization, dependent GeMMs still use
stream synchronization between them; the comparison against cuSync in
Figure 6 is therefore StreamSync-with-StreamK-kernels vs cuSync.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.dim3 import Dim3, ceil_div
from repro.gpu.costmodel import CostModel
from repro.gpu.kernel import KernelLaunch, Segment, ThreadBlockProgram, row_major_tiles
from repro.gpu.occupancy import KernelResources, OccupancyCalculator
from repro.gpu.stream import Stream, DEFAULT_STREAM
from repro.kernels.base import NoSync, SyncInterface, TiledKernel
from repro.kernels.epilogue import Epilogue, Identity
from repro.kernels.gemm import GemmConfig, GemmKernel, GemmProblem, choose_gemm_config


@dataclass(frozen=True)
class StreamKAssignment:
    """The work of one Stream-K block: a contiguous span of MAC iterations."""

    block: int
    #: Global iteration range ``[start, stop)`` over ``tiles x iters_per_tile``.
    start: int
    stop: int

    @property
    def iterations(self) -> int:
        return self.stop - self.start


@dataclass
class StreamKSchedule:
    """Static description of how a GeMM is decomposed by Stream-K."""

    total_tiles: int
    iters_per_tile: int
    blocks_per_wave: int
    #: Tiles handled by the data-parallel kernel (full waves).
    data_parallel_tiles: int
    #: Tiles handled by the Stream-K kernel (the former partial wave).
    streamk_tiles: int
    #: Number of blocks the Stream-K kernel launches.
    streamk_blocks: int
    assignments: List[StreamKAssignment] = field(default_factory=list)

    @property
    def contributors(self) -> List[int]:
        """Per Stream-K tile, how many blocks contribute to it."""
        counts = [0] * self.streamk_tiles
        for a in self.assignments:
            for tile in range(a.start // self.iters_per_tile, ceil_div(a.stop, self.iters_per_tile)):
                counts[tile] += 1
        return counts

    @property
    def tiles_split_across_blocks(self) -> int:
        """How many tiles have contributions from more than one block."""
        return sum(1 for owners in self.contributors if owners > 1)


class StreamKGemmKernel:
    """Builds the (up to two) kernel launches of a Stream-K GeMM.

    This class intentionally does not accept a :class:`SyncInterface`:
    Stream-K is evaluated as a baseline under stream synchronization, and
    the paper notes it is "not straightforward" to combine it with
    fine-grained synchronization of dependent kernels.
    """

    def __init__(
        self,
        name: str,
        problem: GemmProblem,
        config: Optional[GemmConfig] = None,
        epilogue: Optional[Epilogue] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.name = name
        self.problem = problem
        self.cost_model = cost_model if cost_model is not None else CostModel()
        base_config = config if config is not None else choose_gemm_config(problem, self.cost_model.arch)
        # Stream-K does not need split-K: the final wave is already divided
        # among all SMs, so the classic data-parallel part uses split_k = 1.
        self.config = GemmConfig(
            tile_m=base_config.tile_m,
            tile_n=base_config.tile_n,
            tile_k=base_config.tile_k,
            split_k=1,
            threads_per_block=base_config.threads_per_block,
            pipeline_stages=base_config.pipeline_stages,
        )
        self.epilogue = epilogue if epilogue is not None else Identity()

    # ------------------------------------------------------------------
    # Decomposition
    # ------------------------------------------------------------------
    @property
    def resources(self) -> KernelResources:
        return self.config.resources(self.problem.element_bytes)

    def occupancy(self) -> int:
        return OccupancyCalculator(self.cost_model.arch).blocks_per_sm(self.resources)

    def tile_grid(self) -> Dim3:
        problem, cfg = self.problem, self.config
        return Dim3(
            ceil_div(problem.n, cfg.tile_n),
            ceil_div(problem.m, cfg.tile_m),
            problem.batch,
        )

    def schedule(self) -> StreamKSchedule:
        """Compute the Stream-K work assignment."""
        problem, cfg = self.problem, self.config
        grid = self.tile_grid()
        total_tiles = grid.volume
        iters_per_tile = ceil_div(problem.k, cfg.tile_k)
        blocks_per_wave = self.cost_model.arch.blocks_per_wave(self.occupancy())

        full_waves = total_tiles // blocks_per_wave
        data_parallel_tiles = full_waves * blocks_per_wave
        streamk_tiles = total_tiles - data_parallel_tiles

        assignments: List[StreamKAssignment] = []
        streamk_blocks = 0
        if streamk_tiles > 0:
            # Exactly one wave of blocks covers the remaining tiles; with
            # fewer iterations than blocks the launch shrinks accordingly.
            streamk_blocks = min(blocks_per_wave, streamk_tiles * iters_per_tile)
            total_iterations = streamk_tiles * iters_per_tile
            base = total_iterations // streamk_blocks
            remainder = total_iterations % streamk_blocks
            cursor = 0
            for block in range(streamk_blocks):
                size = base + (1 if block < remainder else 0)
                assignments.append(StreamKAssignment(block=block, start=cursor, stop=cursor + size))
                cursor += size

        return StreamKSchedule(
            total_tiles=total_tiles,
            iters_per_tile=iters_per_tile,
            blocks_per_wave=blocks_per_wave,
            data_parallel_tiles=data_parallel_tiles,
            streamk_tiles=streamk_tiles,
            streamk_blocks=streamk_blocks,
            assignments=assignments,
        )

    # ------------------------------------------------------------------
    # Launch construction
    # ------------------------------------------------------------------
    def build_launches(self, stream: Stream = DEFAULT_STREAM) -> List[KernelLaunch]:
        """Build the data-parallel and Stream-K launches (either may be absent)."""
        schedule = self.schedule()
        launches: List[KernelLaunch] = []
        if schedule.data_parallel_tiles > 0:
            launches.append(self._data_parallel_launch(schedule, stream))
        if schedule.streamk_tiles > 0:
            launches.append(self._streamk_launch(schedule, stream))
        return launches

    def _data_parallel_launch(self, schedule: StreamKSchedule, stream: Stream) -> KernelLaunch:
        problem, cfg = self.problem, self.config
        grid = self.tile_grid()
        occupancy = self.occupancy()

        # The data-parallel part covers the first `data_parallel_tiles` tiles
        # in row-major order; reuse GemmKernel's cost structure via a plain
        # unsynchronized kernel over a reduced grid.
        dp_grid = Dim3(schedule.data_parallel_tiles, 1, 1)

        kernel = GemmKernel(
            name=f"{self.name}_dp",
            problem=problem,
            config=cfg,
            epilogue=self.epilogue,
            cost_model=self.cost_model,
            sync=NoSync(),
        )

        tiles = row_major_tiles(grid)

        def build(tile: Dim3) -> ThreadBlockProgram:
            return kernel.build_block_program(tiles[tile.x])

        return KernelLaunch(
            name=f"{self.name}_dp",
            grid=dp_grid,
            program_builder=build,
            occupancy=occupancy,
            stream=stream,
            tags={"kernel_class": "StreamKGemmKernel", "part": "data_parallel"},
        )

    def _streamk_launch(self, schedule: StreamKSchedule, stream: Stream) -> KernelLaunch:
        problem, cfg = self.problem, self.config
        occupancy = self.occupancy()
        tile_m, tile_n = cfg.tile_m, cfg.tile_n
        iters_per_tile = schedule.iters_per_tile
        cost_model = self.cost_model
        # Per-launch tables: what a span costs depends only on its length,
        # and each tile's fix-up on how many blocks contribute to it.
        chunk_us = {}
        epilogue_us = cost_model.gemm_epilogue_us(tile_m, tile_n, occupancy, problem.element_bytes)
        spill_us = cost_model.memory_time_us(tile_m * tile_n * 4, occupancy)
        contributors = schedule.contributors

        def build(tile: Dim3) -> ThreadBlockProgram:
            assignment = schedule.assignments[tile.x]
            segments: List[Segment] = []
            remaining = assignment.iterations
            cursor = assignment.start
            while remaining > 0:
                tile_index = cursor // iters_per_tile
                offset_in_tile = cursor % iters_per_tile
                take = min(remaining, iters_per_tile - offset_in_tile)
                duration = chunk_us.get(take)
                if duration is None:
                    duration = chunk_us[take] = cost_model.gemm_mainloop_chunk_us(
                        tile_m, tile_n, take * cfg.tile_k, occupancy, problem.element_bytes
                    )
                if offset_in_tile + take == iters_per_tile:
                    # The block finishes the tile: epilogue, and unless it
                    # covered the whole tile, a fix-up that reduces the
                    # partial accumulators of every contributing block.
                    duration += epilogue_us
                    if take != iters_per_tile:
                        duration += cost_model.streamk_fixup_us(
                            tile_m, tile_n, contributors[tile_index], occupancy
                        )
                elif take < iters_per_tile:
                    # A partial contribution is spilled to global memory.
                    duration += spill_us
                label = f"iters[{cursor}:{cursor + take}]"
                segments.append(Segment(label=label, duration_us=duration))
                cursor += take
                remaining -= take
            if not segments:
                segments.append(Segment(label="idle", duration_us=0.0))
            return ThreadBlockProgram(tile=tile, segments=segments)

        return KernelLaunch(
            name=f"{self.name}_sk",
            grid=Dim3(schedule.streamk_blocks, 1, 1),
            program_builder=build,
            occupancy=occupancy,
            stream=stream,
            tags={"kernel_class": "StreamKGemmKernel", "part": "streamk"},
        )
