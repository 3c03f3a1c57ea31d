"""Tiled GPU kernel library (the CUTLASS analogue of this reproduction).

The paper synchronizes CUTLASS GeMM and Conv2D kernels plus a hand-written
fused Softmax-Dropout kernel.  This package provides simulator-backed
equivalents.  Every kernel

* computes its launch *grid* from the problem and a tile configuration,
* describes each thread block as a :class:`~repro.gpu.kernel.ThreadBlockProgram`
  whose segments follow the paper's structure (wait for a tile of an input,
  load/compute a K-chunk, post the output tile),
* optionally carries a real numpy computation per tile so results can be
  validated against references, and
* talks to cuSync only through the small :class:`~repro.kernels.base.SyncInterface`
  so the same kernel code runs unmodified under StreamSync (no-op sync) and
  under any cuSync policy — mirroring the "few lines changed" property of
  Table III.
"""

from repro.kernels.base import (
    SyncInterface,
    NoSync,
    ReadPlanStep,
    StageGeometry,
    TiledKernel,
)
from repro.kernels.epilogue import Epilogue, Identity, GeLU, ReLU, SwiGLUMultiply
from repro.kernels.gemm import GemmProblem, GemmConfig, GemmKernel, choose_gemm_config
from repro.kernels.conv2d import Conv2dProblem, Conv2dConfig, Conv2dKernel
from repro.kernels.softmax_dropout import SoftmaxDropoutProblem, SoftmaxDropoutKernel
from repro.kernels.elementwise import CopyProblem, CopyKernel
from repro.kernels.streamk import StreamKGemmKernel, StreamKSchedule

__all__ = [
    "SyncInterface",
    "NoSync",
    "ReadPlanStep",
    "StageGeometry",
    "TiledKernel",
    "Epilogue",
    "Identity",
    "GeLU",
    "ReLU",
    "SwiGLUMultiply",
    "GemmProblem",
    "GemmConfig",
    "GemmKernel",
    "choose_gemm_config",
    "Conv2dProblem",
    "Conv2dConfig",
    "Conv2dKernel",
    "SoftmaxDropoutProblem",
    "SoftmaxDropoutKernel",
    "CopyProblem",
    "CopyKernel",
    "StreamKGemmKernel",
    "StreamKSchedule",
]
