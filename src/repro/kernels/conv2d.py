"""2-D convolution kernel using the implicit-GeMM formulation.

The paper synchronizes the Conv2D kernels of ResNet-38 and VGG-19, which use
CUTLASS's implicit GeMM algorithm: a convolution of ``B`` images of size
``[P, Q, C]`` with a ``[R, S]`` kernel and ``K`` output channels becomes a
GeMM of an implicit ``[B*P*Q, C*R*S]`` matrix (gathered on the fly from the
input activations) with a ``[C*R*S, K]`` filter matrix (Section IV-B).

:class:`Conv2dKernel` is therefore a :class:`~repro.kernels.gemm.GemmKernel`
over that implicit GeMM: the GeMM main loop builds, prices and caches its
blocks, and a split-K tile applies its epilogue when the tile's last split
lands.  Tiles are tiles of the implicit GeMM output: ``tile_m`` output pixels
by ``tile_n`` output channels.  What stays here is conv-specific: planning
the input reads, the im2col gather, the filter and NHWC output views the
functional hooks expose, and the direct-convolution reference.

The dependence of a second Conv2D on the first is through the input
activations: a chunk of the implicit K dimension corresponds to a slice of
the producer's output channels, and an output-pixel row range corresponds to
a slightly larger (halo-expanded) input-pixel row range.  Unlike the paper's
simplified dependence (which maps a consumer tile to the producer tile at
``x/(R*S)``), the reproduction includes the halo rows so that functional
simulation never reads pixels the producer has not written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.common.dim3 import ceil_div
from repro.common.validation import check_positive
from repro.gpu.costmodel import CostModel
from repro.gpu.memory import GlobalMemory
from repro.kernels.base import IndexRange, ReadPlanStep, SyncInterface
from repro.kernels.epilogue import Epilogue, Identity
from repro.kernels.gemm import GemmConfig, GemmKernel, GemmProblem


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

    def implicit_gemm(self) -> GemmProblem:
        """The GeMM this convolution computes: input ``@`` filter ``->`` output."""
        return GemmProblem(
            m=self.gemm_m,
            n=self.gemm_n,
            k=self.gemm_k,
            a=self.input,
            b=self.weight,
            c=self.output,
            element_bytes=self.element_bytes,
        )

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


class Conv2dKernel(GemmKernel):
    """Implicit-GeMM Conv2D kernel runnable on the simulator.

    ``conv`` is the convolution; ``problem`` is its implicit GeMM
    (:meth:`Conv2dProblem.implicit_gemm`), whose A operand is the input
    activations and whose B operand is the filter.
    """

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
        super().__init__(
            name,
            problem.implicit_gemm(),
            config=config if config is not None else choose_conv2d_config(problem),
            epilogue=epilogue,
            sync=sync,
            sync_inputs=sync_inputs,
            cost_model=cost_model,
        )
        self.conv = problem

    def _plan_operand(
        self, tensor: str, rows: IndexRange, k_range: IndexRange, batch: int
    ) -> List[ReadPlanStep]:
        """Plan the gathered reads of the input activations.

        A chunk ``[k0, k1)`` of the implicit K dimension touches the
        producer's output channels ``[k0 // (R*S), ceil(k1 / (R*S)))`` and,
        because of the receptive field, the producer's pixel rows expanded
        by the halo.
        """
        conv = self.conv
        if tensor not in self.sync_inputs:
            return super()._plan_operand(tensor, rows, k_range, batch)
        taps = conv.kernel_r * conv.kernel_s
        channel_lo = k_range[0] // taps
        channel_hi = ceil_div(k_range[1], taps)
        pixel_rows = self._clamp_range((rows[0] - conv.halo_rows, rows[1] + conv.halo_rows), conv.gemm_m)
        steps = self.sync.plan_reads(tensor, pixel_rows, (channel_lo, channel_hi), batch)
        # The stage answers in producer-output coordinates (pixel rows x
        # channels); convert the channel ranges back to this kernel's
        # implicit-K coordinates so the main-loop chunks line up.
        converted = []
        for step in steps:
            k_chunk = self._clamp_range((step.cols[0] * taps, step.cols[1] * taps), conv.gemm_k)
            k_chunk = (max(k_chunk[0], k_range[0]), min(k_chunk[1], k_range[1]))
            converted.append(
                ReadPlanStep(rows=rows, cols=k_chunk, waits=step.waits, reads=step.reads, batch=0)
            )
        return converted

    # ------------------------------------------------------------------
    # Functional (numpy) views of the implicit GeMM
    # ------------------------------------------------------------------
    def _output_shape(self) -> Tuple[int, ...]:
        conv = self.conv
        return (conv.batch, conv.height, conv.width, conv.out_channels)

    def _output_matrix(self, memory: GlobalMemory, batch: int) -> np.ndarray:
        """The NHWC output seen as the ``[B*P*Q, K]`` implicit-GeMM output."""
        conv = self.conv
        return memory.tensor(conv.output).reshape((conv.gemm_m, conv.out_channels), copy=False)

    def _a_slice(self, memory: GlobalMemory, batch: int, rows: IndexRange, k_range: IndexRange) -> np.ndarray:
        """im2col gather: ``[rows, k_range]`` slice of the implicit A matrix."""
        conv = self.conv
        x = memory.tensor(conv.input)
        taps = conv.kernel_r * conv.kernel_s
        channel, tap = np.divmod(np.arange(k_range[0], k_range[1]), taps)
        image, pixel = np.divmod(np.arange(rows[0], rows[1])[:, np.newaxis], conv.height * conv.width)
        sy = pixel // conv.width + tap // conv.kernel_s - conv.kernel_r // 2
        sx = pixel % conv.width + tap % conv.kernel_s - conv.kernel_s // 2
        inside = (sy >= 0) & (sy < conv.height) & (sx >= 0) & (sx < conv.width)
        image = np.broadcast_to(image, inside.shape)[inside]
        channel = np.broadcast_to(channel, inside.shape)[inside]
        out = np.zeros(inside.shape, dtype=np.float32)
        out[inside] = x[image, sy[inside], sx[inside], channel]
        return out

    def _b_slice(self, memory: GlobalMemory, batch: int, k_range: IndexRange, cols: IndexRange) -> np.ndarray:
        """``[k_range, cols]`` slice of the ``[C*R*S, K]`` filter matrix."""
        conv = self.conv
        # Weight layout [R, S, C, K] flattened with the same (channel-major,
        # tap-minor) ordering as the gather above.
        flat = np.transpose(memory.tensor(conv.weight), (2, 0, 1, 3)).reshape(conv.gemm_k, conv.out_channels)
        return flat[k_range[0]:k_range[1], cols[0]:cols[1]]

    def reference_result(self, memory: GlobalMemory) -> np.ndarray:
        """Direct same-padded convolution reference."""
        conv = self.conv
        x = memory.tensor(conv.input).astype(np.float32)
        weight = memory.tensor(conv.weight).astype(np.float32)
        pad_r = conv.kernel_r // 2
        pad_s = conv.kernel_s // 2
        padded = np.pad(x, ((0, 0), (pad_r, pad_r), (pad_s, pad_s), (0, 0)))
        out = np.zeros(self._output_shape(), np.float32)
        for dr in range(conv.kernel_r):
            for ds in range(conv.kernel_s):
                window = padded[:, dr:dr + conv.height, ds:ds + conv.width, :]
                out += np.einsum("bijc,ck->bijk", window, weight[dr, ds])
        if isinstance(self.epilogue, Identity):
            return out
        flat = out.reshape(conv.gemm_m, conv.out_channels)
        flat = self.epilogue.apply(flat, memory, (0, conv.gemm_m), (0, conv.out_channels), 0)
        return flat.reshape(out.shape)
