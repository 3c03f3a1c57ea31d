"""Analytical cost model for tile computations and synchronization.

The simulator needs a duration for every segment of every thread block.  The
durations here come from a simple roofline-style model: a tile computation
costs the larger of its compute time (FLOPs over the SM's share of the
device throughput) and its memory time (bytes moved over the SM's share of
bandwidth), plus fixed per-tile overheads.  Synchronization costs follow the
paper's Section V-D breakdown: a ``wait`` is a global-memory poll (plus the
implicit ``__syncthreads``), a ``post`` is a ``__syncthreads`` + memory
fence + global atomic add.

Absolute accuracy is not the goal — reproducing the *relative* behaviour of
StreamSync, Stream-K and cuSync policies is.  The model is therefore kept
deliberately small and fully deterministic.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.common.validation import check_non_negative, check_positive
from repro.gpu.arch import GpuArchitecture, TESLA_V100

#: Bytes per element for the half-precision data the paper's kernels use.
FP16_BYTES = 2
FP32_BYTES = 4


@dataclass
class CostModel:
    """Computes segment durations from the architecture description.

    ``occupancy_aware`` durations divide an SM's throughput among the
    resident thread blocks of the kernel, so a kernel that fits two blocks
    per SM has blocks that individually run at half speed but a wave that
    still delivers the SM's full throughput — matching how waves behave on
    real hardware.
    """

    arch: GpuArchitecture = TESLA_V100
    #: Fixed per-tile overhead covering prologue/epilogue work, in µs.
    tile_fixed_overhead_us: float = 1.0
    #: Fixed per-kernel epilogue overhead added to a block's last segment.
    epilogue_overhead_us: float = 0.5
    #: Deterministic spread of per-block durations, as a fraction.  Real
    #: thread blocks of the same kernel finish at staggered times (DRAM and
    #: L2 contention, scheduler jitter); stream synchronization must wait
    #: for the slowest block of the producer while fine-grained
    #: synchronization only waits for the tiles it needs, so this spread is
    #: part of what cuSync recovers.  The spread derives from one blake2b
    #: digest of the kernel name (computed once per kernel and cached)
    #: mixed with the block index by a cheap integer finalizer, so runs are
    #: exactly reproducible without hashing per block.
    duration_jitter: float = 0.12
    #: Memoized per-kernel jitter seeds (one blake2b digest per kernel
    #: launch name); pure internal cache, excluded from init/equality/repr.
    _jitter_seeds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Negated, so a NaN (which fails every comparison) is rejected too:
        # it makes segment durations NaN, and NaN event times never advance
        # the simulated clock, so the run would report a wrong time.
        for name in ("tile_fixed_overhead_us", "epilogue_overhead_us", "duration_jitter"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")

    # ------------------------------------------------------------------
    # Generic roofline pieces
    # ------------------------------------------------------------------
    def compute_time_us(self, flops: float, occupancy: int = 1, precision: str = "fp16") -> float:
        """Time to execute ``flops`` on one thread block's share of an SM."""
        check_non_negative("flops", flops)
        check_positive("occupancy", occupancy)
        if precision == "fp16":
            peak = self.arch.fp16_flops_per_sm_us
        elif precision == "fp32":
            peak = self.arch.fp32_flops_per_sm_us
        else:
            raise ValueError(f"unknown precision {precision!r}")
        effective = peak * self.arch.compute_efficiency / occupancy
        return flops / effective if flops > 0 else 0.0

    def memory_time_us(self, bytes_moved: float, occupancy: int = 1) -> float:
        """Time to move ``bytes_moved`` through one block's bandwidth share."""
        check_non_negative("bytes_moved", bytes_moved)
        check_positive("occupancy", occupancy)
        effective = self.arch.bytes_per_sm_us * self.arch.memory_efficiency / occupancy
        return bytes_moved / effective if bytes_moved > 0 else 0.0

    def roofline_time_us(
        self, flops: float, bytes_moved: float, occupancy: int = 1, precision: str = "fp16"
    ) -> float:
        """Roofline duration: max of compute and memory time."""
        return max(
            self.compute_time_us(flops, occupancy, precision),
            self.memory_time_us(bytes_moved, occupancy),
        )

    # ------------------------------------------------------------------
    # Tile-level building blocks used by the kernel library
    # ------------------------------------------------------------------
    def gemm_mainloop_chunk_us(
        self,
        tile_m: int,
        tile_n: int,
        chunk_k: int,
        occupancy: int = 1,
        element_bytes: int = FP16_BYTES,
    ) -> float:
        """Duration of one K-chunk of a tiled GeMM main loop.

        A chunk multiplies a ``tile_m x chunk_k`` slice of A with a
        ``chunk_k x tile_n`` slice of B, loading both slices from global
        memory into shared memory.
        """
        flops = 2.0 * tile_m * tile_n * chunk_k
        bytes_moved = (tile_m * chunk_k + chunk_k * tile_n) * element_bytes
        return self.roofline_time_us(flops, bytes_moved, occupancy)

    def gemm_epilogue_us(
        self, tile_m: int, tile_n: int, occupancy: int = 1, element_bytes: int = FP16_BYTES
    ) -> float:
        """Duration of storing a finished output tile (plus fused pointwise)."""
        bytes_moved = tile_m * tile_n * element_bytes
        return self.memory_time_us(bytes_moved, occupancy) + self.epilogue_overhead_us

    def elementwise_tile_us(
        self, elements: int, occupancy: int = 1, element_bytes: int = FP16_BYTES, reads: int = 1, writes: int = 1
    ) -> float:
        """Duration of an elementwise/copy tile (memory-bound)."""
        bytes_moved = elements * element_bytes * (reads + writes)
        return self.memory_time_us(bytes_moved, occupancy)

    def softmax_tile_us(self, rows: int, row_length: int, occupancy: int = 1) -> float:
        """Duration of a fused softmax(+dropout) tile over ``rows`` rows."""
        elements = rows * row_length
        # Softmax reads the row twice (max + exp/sum) and writes it once.
        bytes_moved = elements * FP16_BYTES * 3
        flops = elements * 5.0  # exp, subtract, divide, compare, scale
        return self.roofline_time_us(flops, bytes_moved, occupancy, precision="fp32")

    # ------------------------------------------------------------------
    # Synchronization costs (Section V-D)
    # ------------------------------------------------------------------
    def wait_overhead_us(self) -> float:
        """Cost of one exposed ``wait``: a global poll + ``__syncthreads``."""
        return self.arch.global_latency_us + self.arch.fence_latency_us * 0.5

    def satisfied_wait_overhead_us(self) -> float:
        """Cost of a ``wait`` whose semaphore is already at its target value.

        The poll still issues a global read, but in a software-pipelined
        kernel it overlaps with the previous chunk's compute, so only a
        fraction of the latency is exposed.
        """
        return self.arch.global_latency_us * 0.3

    def post_overhead_us(self) -> float:
        """Cost of one ``post``: ``__syncthreads`` + fence + atomic add."""
        return self.arch.fence_latency_us + self.arch.atomic_latency_us

    def wait_kernel_poll_us(self) -> float:
        """Granularity at which the single-thread wait-kernel polls."""
        return self.arch.global_latency_us

    def kernel_launch_us(self) -> float:
        """Host-side latency of one kernel launch."""
        return self.arch.kernel_launch_latency_us

    def kernel_dispatch_gap_us(self) -> float:
        """Device-side gap between back-to-back kernels on one stream."""
        return self.arch.kernel_dispatch_latency_us

    def jitter_seed(self, kernel_name: str) -> int:
        """The per-kernel 64-bit jitter seed (one blake2b digest, memoized).

        The simulator dispatches every block of a launch through
        :meth:`block_duration_factor`; hashing per block made the digest a
        measurable share of dispatch time, so the cryptographic hash runs
        once per kernel name and a cheap integer mixer spreads it across
        block indices.
        """
        seed = self._jitter_seeds.get(kernel_name)
        if seed is None:
            digest = hashlib.blake2b(kernel_name.encode(), digest_size=8).digest()
            seed = int.from_bytes(digest, "little")
            self._jitter_seeds[kernel_name] = seed
        return seed

    def block_duration_factor(self, kernel_name: str, dispatch_index: int) -> float:
        """Deterministic per-block duration multiplier in ``[1, 1 + jitter)``."""
        if self.duration_jitter <= 0.0:
            return 1.0
        # splitmix64 finalizer over (seed + golden-ratio stride * index):
        # well-distributed 64-bit mixing with three shift-xor-multiply
        # rounds, far cheaper than a per-block blake2b digest.
        mask = 0xFFFFFFFFFFFFFFFF
        z = (self.jitter_seed(kernel_name) + dispatch_index * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        fraction = (z >> 32) / 2 ** 32
        return 1.0 + self.duration_jitter * fraction

    def block_duration_factors(self, kernel_name: str, count: int) -> List[float]:
        """Vectorized :meth:`block_duration_factor` for indices ``0..count-1``.

        One numpy evaluation of the splitmix64 finalizer replaces ``count``
        Python-arithmetic calls when the simulator prepares a launch; the
        uint64 lane wraps exactly like the masked scalar path and the
        ``(z >> 32) / 2**32`` fraction is a power-of-two division of a
        value below 2**32, so every element is bit-identical to the scalar
        method (defended by a test).
        """
        if self.duration_jitter <= 0.0 or count <= 0:
            return [1.0] * max(count, 0)
        stride = np.uint64(0x9E3779B97F4A7C15)
        indices = np.arange(count, dtype=np.uint64)
        z = np.uint64(self.jitter_seed(kernel_name)) + indices * stride
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        fractions = (z >> np.uint64(32)).astype(np.float64) / 4294967296.0
        return (1.0 + self.duration_jitter * fractions).tolist()

    # ------------------------------------------------------------------
    # Stream-K specific costs
    # ------------------------------------------------------------------
    def streamk_fixup_us(self, tile_m: int, tile_n: int, partials: int, occupancy: int = 1) -> float:
        """Cost of reducing ``partials`` partial tiles produced by Stream-K.

        Each partial accumulator is written to and re-read from global
        memory (the extra traffic the paper cites as Stream-K's drawback).
        """
        check_non_negative("partials", partials)
        if partials <= 1:
            return 0.0
        bytes_moved = tile_m * tile_n * FP32_BYTES * (partials + 1)
        return self.memory_time_us(bytes_moved, occupancy) + self.tile_fixed_overhead_us
