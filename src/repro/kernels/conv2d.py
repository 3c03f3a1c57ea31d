"""2-D convolution kernel using the implicit-GeMM formulation.

The paper synchronizes the Conv2D kernels of ResNet-38 and VGG-19, which use
CUTLASS's implicit GeMM algorithm: a convolution of ``B`` images of size
``[P, Q, C]`` with a ``[R, S]`` kernel and ``K`` output channels becomes a
GeMM of an implicit ``[B*P*Q, C*R*S]`` matrix (gathered on the fly from the
input activations) with a ``[C*R*S, K]`` filter matrix (Section IV-B).

Tiles are therefore tiles of the implicit GeMM output: ``tile_m`` output
pixels by ``tile_n`` output channels.  The dependence of a second Conv2D on
the first is through the input activations: a chunk of the implicit K
dimension corresponds to a slice of the producer's output channels, and an
output-pixel row range corresponds to a slightly larger (halo-expanded)
input-pixel row range.  Unlike the paper's simplified dependence (which maps
a consumer tile to the producer tile at ``x/(R*S)``), the reproduction
includes the halo rows so that functional simulation never reads pixels the
producer has not written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.common.dim3 import Dim3, ceil_div
from repro.common.validation import check_non_negative, check_positive
from repro.gpu.costmodel import CostModel
from repro.gpu.kernel import Segment, ThreadBlockProgram
from repro.gpu.memory import GlobalMemory
from repro.gpu.occupancy import KernelResources
from repro.kernels.base import IndexRange, ReadPlanStep, StageGeometry, SyncInterface, TiledKernel
from repro.kernels.epilogue import Epilogue, Identity
from repro.kernels.gemm import GemmConfig, _merge_k_plans


@dataclass(frozen=True)
class Conv2dProblem:
    """A same-padded 2-D convolution, NHWC activations, RSCK filters."""

    batch: int
    height: int
    width: int
    in_channels: int
    out_channels: int
    kernel_r: int = 3
    kernel_s: int = 3
    input: str = "X"
    weight: str = "W"
    output: str = "Y"
    element_bytes: int = 2

    def __post_init__(self) -> None:
        check_positive("batch", self.batch)
        check_positive("height", self.height)
        check_positive("width", self.width)
        check_positive("in_channels", self.in_channels)
        check_positive("out_channels", self.out_channels)
        check_positive("kernel_r", self.kernel_r)
        check_positive("kernel_s", self.kernel_s)

    # Implicit GeMM view ------------------------------------------------
    @property
    def gemm_m(self) -> int:
        """Rows of the implicit GeMM: all output pixels."""
        return self.batch * self.height * self.width

    @property
    def gemm_n(self) -> int:
        """Columns of the implicit GeMM: output channels."""
        return self.out_channels

    @property
    def gemm_k(self) -> int:
        """Reduction size of the implicit GeMM: ``C * R * S``."""
        return self.in_channels * self.kernel_r * self.kernel_s

    @property
    def flops(self) -> float:
        return 2.0 * self.gemm_m * self.gemm_n * self.gemm_k

    @property
    def halo_rows(self) -> int:
        """Extra implicit-GeMM rows the receptive field reaches on each side."""
        return (self.kernel_r // 2) * self.width + (self.kernel_s // 2)

    def pixel_coords(self, row: int) -> Tuple[int, int, int]:
        """Map an implicit-GeMM row index to ``(image, y, x)``."""
        image = row // (self.height * self.width)
        rest = row % (self.height * self.width)
        return image, rest // self.width, rest % self.width


#: Conv2D kernels reuse the GeMM tiling configuration.
Conv2dConfig = GemmConfig


def choose_conv2d_config(problem: Conv2dProblem) -> Conv2dConfig:
    """Default CUTLASS-like tile configuration for a Conv2D problem.

    Output-channel counts in ResNet/VGG layers are 64–512, so the column
    tile adapts to the channel count while the pixel tile stays large.
    """
    tile_n = min(128, max(64, problem.out_channels))
    tile_m = 128 if problem.gemm_m >= 128 else 64
    return Conv2dConfig(tile_m=tile_m, tile_n=tile_n, tile_k=32, split_k=1)


class Conv2dKernel(TiledKernel):
    """Implicit-GeMM Conv2D kernel runnable on the simulator."""

    def __init__(
        self,
        name: str,
        problem: Conv2dProblem,
        config: Optional[Conv2dConfig] = None,
        epilogue: Optional[Epilogue] = None,
        sync: Optional[SyncInterface] = None,
        sync_inputs: Tuple[str, ...] = (),
        cost_model: Optional[CostModel] = None,
    ) -> None:
        super().__init__(name=name, cost_model=cost_model, sync=sync)
        self.problem = problem
        self.config = config if config is not None else choose_conv2d_config(problem)
        self.epilogue = epilogue if epilogue is not None else Identity()
        self.sync_inputs = tuple(sync_inputs)

    def _invalidate_plan_caches(self) -> None:
        super()._invalidate_plan_caches()
        self._chunk_duration_cache: dict = {}
        self._overlap_cache: dict = {}
        self._body_segment_cache: dict = {}
        #: The synchronized input's ``(body key, plan)`` per (tile row, z), see
        #: :meth:`_plan_entry`: a ``NoSync`` binding shares bodies across rows.
        self._input_entries: dict = {}
        self._grid_cache: Optional[Dim3] = None

    # ------------------------------------------------------------------
    # TiledKernel interface
    # ------------------------------------------------------------------
    @property
    def grid(self) -> Dim3:
        grid = self._grid_cache
        if grid is None:
            cfg, problem = self.config, self.problem
            grid = self._grid_cache = Dim3(
                ceil_div(problem.gemm_n, cfg.tile_n),
                ceil_div(problem.gemm_m, cfg.tile_m),
                cfg.split_k,
            )
        return grid

    @property
    def resources(self) -> KernelResources:
        return self.config.resources(self.problem.element_bytes)

    def stage_geometry(self) -> StageGeometry:
        return StageGeometry(
            grid=self.grid,
            tile_rows=self.config.tile_m,
            tile_cols=self.config.tile_n,
            split_k=self.config.split_k,
            batch=1,
            output=self.problem.output,
        )

    def build_block_program(self, tile: Dim3) -> ThreadBlockProgram:
        problem = self.problem
        row_spans, col_spans, z_spans = self._tables or self._block_tables(
            problem.gemm_m, problem.gemm_n, problem.gemm_k
        )
        rows, tile_m_actual = row_spans[tile.y]
        cols, tile_n_actual = col_spans[tile.x]
        batch_index, k_range = z_spans[tile.z]

        # Share the main-loop segment list between blocks whose read plans
        # are identical (see GemmKernel.build_block_program): only the input
        # activations are ever synchronized, so outside functional mode the
        # body depends on ``rows`` solely through the input's plan.
        compute = None
        if self.functional:
            segments = self._body_segments(rows, cols, k_range, tile_m_actual, tile_n_actual)
            compute = self._make_epilogue_compute(rows, cols)
        else:
            input_key, input_plan = self._plan_entry(
                self._input_entries, (tile.y, tile.z), problem.input, rows, k_range, batch_index,
                "cols", tile_m_actual,
            )
            body_key = (input_key, tile_n_actual, k_range)
            body = self._body_segment_cache.get(body_key)
            if body is None:
                body = self._body_segment_cache[body_key] = self._body_segments(
                    rows, cols, k_range, tile_m_actual, tile_n_actual, input_plan
                )
            segments = list(body)
        segments.append(
            self._epilogue_segment(tile, (tile_m_actual, tile_n_actual), problem.output, compute)
        )
        return ThreadBlockProgram(tile, segments)

    def _epilogue_duration_us(self, tile_m: int, tile_n: int, occupancy: int) -> float:
        duration = self.cost_model.gemm_epilogue_us(tile_m, tile_n, occupancy, self.problem.element_bytes)
        if self.epilogue.flops_per_element:
            duration += self.cost_model.compute_time_us(
                tile_m * tile_n * self.epilogue.flops_per_element, occupancy, precision="fp32"
            )
        return duration

    def _body_segments(
        self,
        rows: IndexRange,
        cols: IndexRange,
        k_range: IndexRange,
        tile_m_actual: int,
        tile_n_actual: int,
        input_plan: Optional[List[ReadPlanStep]] = None,
    ) -> List[Segment]:
        """The main-loop segments of one block (everything but the epilogue)."""
        problem = self.problem
        occupancy = self.occupancy()
        if input_plan is None:
            input_plan = self._plan_operand(problem.input, rows, k_range, 0)
        weight_plan = [ReadPlanStep(rows=k_range, cols=cols)]
        chunks = _merge_k_plans(input_plan, weight_plan, k_range)

        reorder_loads = self.sync.reorder_loads
        segments: List[Segment] = []
        for chunk in chunks:
            k_lo, k_hi = chunk.k_range
            chunk_k = k_hi - k_lo
            shape_key = (tile_m_actual, tile_n_actual, chunk_k)
            duration = self._chunk_duration_cache.get(shape_key)
            if duration is None:
                duration = self.cost_model.gemm_mainloop_chunk_us(
                    tile_m_actual, tile_n_actual, chunk_k, occupancy, problem.element_bytes
                )
                self._chunk_duration_cache[shape_key] = duration
            waits = list(chunk.waits)
            overlappable = 0.0
            if reorder_loads and waits:
                # Reorder-loads: the filter slice can be prefetched while
                # waiting on the producer's activation tile.
                overlappable = self._overlap_cache.get((tile_n_actual, chunk_k))
                if overlappable is None:
                    overlappable = self.cost_model.memory_time_us(
                        chunk_k * tile_n_actual * problem.element_bytes, occupancy
                    )
                    self._overlap_cache[(tile_n_actual, chunk_k)] = overlappable
            compute = None
            if self.functional:
                compute = self._make_chunk_compute(rows, cols, (k_lo, k_hi))
            segments.append(
                Segment(
                    label=f"k[{k_lo}:{k_hi}]",
                    waits=waits,
                    duration_us=duration,
                    overlappable_us=overlappable,
                    reads=list(chunk.reads),
                    compute=compute,
                )
            )
        return segments

    def _plan_operand(
        self, tensor: str, rows: IndexRange, k_range: IndexRange, batch: int
    ) -> List[ReadPlanStep]:
        """Plan the gathered reads of the input activations.

        A chunk ``[k0, k1)`` of the implicit K dimension touches the
        producer's output channels ``[k0 // (R*S), ceil(k1 / (R*S)))`` and,
        because of the receptive field, the producer's pixel rows expanded
        by the halo.
        """
        problem = self.problem
        if tensor not in self.sync_inputs:
            return super()._plan_operand(tensor, rows, k_range, batch)
        taps = problem.kernel_r * problem.kernel_s
        channel_lo = k_range[0] // taps
        channel_hi = ceil_div(k_range[1], taps)
        pixel_rows = self._clamp_range(
            (rows[0] - problem.halo_rows, rows[1] + problem.halo_rows), problem.gemm_m
        )
        steps = self.sync.plan_reads(tensor, pixel_rows, (channel_lo, channel_hi), batch)
        # The stage answers in producer-output coordinates (pixel rows x
        # channels); convert the channel ranges back to this kernel's
        # implicit-K coordinates so the main-loop chunks line up.
        converted = []
        for step in steps:
            k_chunk = self._clamp_range((step.cols[0] * taps, step.cols[1] * taps), problem.gemm_k)
            k_chunk = (max(k_chunk[0], k_range[0]), min(k_chunk[1], k_range[1]))
            converted.append(
                ReadPlanStep(rows=rows, cols=k_chunk, waits=step.waits, reads=step.reads, batch=0)
            )
        return converted

    # ------------------------------------------------------------------
    # Functional (numpy) computation
    # ------------------------------------------------------------------
    def allocate_functional_tensors(self, memory: GlobalMemory) -> None:
        problem = self.problem
        if not memory.has_tensor(problem.output):
            memory.store_tensor(
                problem.output,
                np.zeros((problem.batch, problem.height, problem.width, problem.out_channels), np.float32),
            )

    def _gather_input_columns(self, memory: GlobalMemory, rows: IndexRange, k_range: IndexRange) -> np.ndarray:
        """im2col gather: ``[rows, k_range]`` slice of the implicit A matrix."""
        problem = self.problem
        x = memory.tensor(problem.input)
        taps = problem.kernel_r * problem.kernel_s
        channel, tap = np.divmod(np.arange(k_range[0], k_range[1]), taps)
        image, pixel = np.divmod(np.arange(rows[0], rows[1])[:, np.newaxis], problem.height * problem.width)
        sy = pixel // problem.width + tap // problem.kernel_s - problem.kernel_r // 2
        sx = pixel % problem.width + tap % problem.kernel_s - problem.kernel_s // 2
        inside = (sy >= 0) & (sy < problem.height) & (sx >= 0) & (sx < problem.width)
        image = np.broadcast_to(image, inside.shape)[inside]
        channel = np.broadcast_to(channel, inside.shape)[inside]
        out = np.zeros(inside.shape, dtype=np.float32)
        out[inside] = x[image, sy[inside], sx[inside], channel]
        return out

    def _make_chunk_compute(self, rows: IndexRange, cols: IndexRange, k_range: IndexRange):
        problem = self.problem

        def compute(memory: GlobalMemory) -> None:
            a = self._gather_input_columns(memory, rows, k_range)
            weight = memory.tensor(problem.weight)
            # Weight layout [R, S, C, K] flattened to [C*R*S, K] with the
            # same (channel-major, tap-minor) ordering as the gather above.
            flat = np.transpose(weight, (2, 0, 1, 3)).reshape(problem.gemm_k, problem.out_channels)
            b = flat[k_range[0]:k_range[1], cols[0]:cols[1]].astype(np.float32)
            partial = a @ b
            y = memory.tensor(problem.output)
            for row_offset, row in enumerate(range(rows[0], rows[1])):
                image, py, px = problem.pixel_coords(row)
                y[image, py, px, cols[0]:cols[1]] += partial[row_offset]

        return compute

    def _make_epilogue_compute(self, rows: IndexRange, cols: IndexRange):
        problem = self.problem
        epilogue = self.epilogue

        def compute(memory: GlobalMemory) -> None:
            if isinstance(epilogue, Identity):
                return
            y = memory.tensor(problem.output)
            for row in range(rows[0], rows[1]):
                image, py, px = problem.pixel_coords(row)
                y[image, py, px, cols[0]:cols[1]] = epilogue.apply(
                    y[image, py, px, cols[0]:cols[1]], memory, rows, cols, 0
                )

        return compute

    def reference_result(self, memory: GlobalMemory) -> np.ndarray:
        """Direct same-padded convolution reference."""
        problem = self.problem
        x = memory.tensor(problem.input).astype(np.float32)
        weight = memory.tensor(problem.weight).astype(np.float32)
        pad_r = problem.kernel_r // 2
        pad_s = problem.kernel_s // 2
        padded = np.pad(x, ((0, 0), (pad_r, pad_r), (pad_s, pad_s), (0, 0)))
        out = np.zeros((problem.batch, problem.height, problem.width, problem.out_channels), np.float32)
        for dr in range(problem.kernel_r):
            for ds in range(problem.kernel_s):
                window = padded[:, dr:dr + problem.height, ds:ds + problem.width, :]
                out += np.einsum("bijc,ck->bijk", window, weight[dr, ds])
        if isinstance(self.epilogue, Identity):
            return out
        flat = out.reshape(problem.gemm_m, problem.out_channels)
        flat = self.epilogue.apply(flat, memory, (0, problem.gemm_m), (0, problem.out_channels), 0)
        return flat.reshape(out.shape)
