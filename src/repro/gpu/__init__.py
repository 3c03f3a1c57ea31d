"""Discrete-event GPU simulator substrate.

The paper evaluates cuSync on NVIDIA V100 GPUs.  This reproduction has no
GPU, so this package provides the substrate the rest of the library runs on:
a simulator that models the parts of the hardware/runtime the paper's
mechanisms interact with —

* Streaming Multiprocessors (SMs) and per-kernel occupancy, which determine
  how many thread blocks run concurrently and therefore how many *waves* a
  kernel needs (:mod:`repro.gpu.arch`, :mod:`repro.gpu.occupancy`);
* CUDA streams and the launch-order thread-block scheduler the paper's
  wait-kernel mechanism relies on (:mod:`repro.gpu.stream`,
  :mod:`repro.gpu.simulator`);
* global memory, semaphore arrays and atomics used by cuSync's wait/post
  (:mod:`repro.gpu.memory`);
* an analytical cost model for tile computations, tile loads and
  synchronization operations (:mod:`repro.gpu.costmodel`);
* execution traces with utilization and wave statistics
  (:mod:`repro.gpu.trace`).

Thread blocks are described as small *programs* (sequences of segments with
waits, modeled durations and posts, :mod:`repro.gpu.kernel`), which the
simulator executes with discrete-event semantics.  Wave quantization,
overlap between kernels, busy-wait occupancy and deadlocks all emerge from
the model rather than being hard-coded.
"""

from repro.gpu.arch import (
    ADA_RTX_4090,
    AMPERE_A100,
    ArchLike,
    ArchSpec,
    GpuArchitecture,
    HOPPER_H100,
    TESLA_V100,
    canonical_arch_key,
    register_arch,
    registered_archs,
    resolve_arch,
    unregister_arch,
)
from repro.gpu.occupancy import OccupancyCalculator, KernelResources
from repro.gpu.memory import GlobalMemory
from repro.gpu.stream import Stream
from repro.gpu.kernel import (
    SemWait,
    SemPost,
    TensorAccess,
    Segment,
    ThreadBlockProgram,
    KernelLaunch,
)
from repro.gpu.costmodel import CostModel
from repro.gpu.simulator import GpuSimulator, SimulationResult
from repro.gpu.trace import BlockRecord, KernelStats, ExecutionTrace, wave_count, analytic_utilization

__all__ = [
    "GpuArchitecture",
    "TESLA_V100",
    "AMPERE_A100",
    "HOPPER_H100",
    "ADA_RTX_4090",
    "ArchLike",
    "ArchSpec",
    "canonical_arch_key",
    "register_arch",
    "registered_archs",
    "resolve_arch",
    "unregister_arch",
    "OccupancyCalculator",
    "KernelResources",
    "GlobalMemory",
    "Stream",
    "SemWait",
    "SemPost",
    "TensorAccess",
    "Segment",
    "ThreadBlockProgram",
    "KernelLaunch",
    "CostModel",
    "GpuSimulator",
    "SimulationResult",
    "BlockRecord",
    "KernelStats",
    "ExecutionTrace",
    "wave_count",
    "analytic_utilization",
]
