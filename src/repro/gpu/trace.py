"""Execution traces and derived statistics (waves, utilization).

The paper's analysis revolves around two numbers per kernel: how many
*waves* of thread blocks it needs (Table I, Table IV) and what fraction of
the GPU the final wave utilizes.  This module computes both the analytic
versions (from grid size and occupancy, as the paper's tables do) and the
measured versions (from the simulated schedule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.dim3 import Dim3
from repro.gpu.arch import GpuArchitecture


def wave_count(num_blocks: int, occupancy: int, arch: GpuArchitecture) -> float:
    """Fractional number of waves: ``blocks / (occupancy * SMs)``.

    The paper reports this fractional value (e.g. "1.2 waves"); use
    ``math.ceil`` on the result for the number of full scheduling rounds.
    """
    per_wave = arch.blocks_per_wave(occupancy)
    return num_blocks / per_wave


def analytic_utilization(num_blocks: int, occupancy: int, arch: GpuArchitecture) -> float:
    """GPU utilization as defined in Table I.

    The kernel runs ``ceil(waves)`` waves of ``occupancy * SMs`` block slots
    each; utilization is the fraction of those slots that hold real blocks.
    """
    if num_blocks == 0:
        return 0.0
    per_wave = arch.blocks_per_wave(occupancy)
    waves = math.ceil(num_blocks / per_wave)
    return num_blocks / (waves * per_wave)


@dataclass(slots=True)
class BlockRecord:
    """Timing record for one simulated thread block."""

    kernel: str
    launch_index: int
    tile: Dim3
    dispatch_index: int
    sm_id: int
    dispatch_time_us: float
    end_time_us: float
    #: Time spent busy-waiting on semaphores, in µs.
    wait_time_us: float = 0.0
    #: Modeled load/compute time, in µs.
    work_time_us: float = 0.0

    @property
    def resident_time_us(self) -> float:
        """Wall-clock time the block occupied its SM slot."""
        return self.end_time_us - self.dispatch_time_us


@dataclass
class KernelStats:
    """Aggregate statistics of one kernel launch."""

    name: str
    launch_index: int
    grid: Dim3
    occupancy: int
    num_blocks: int
    issue_time_us: float
    start_time_us: float = math.inf
    end_time_us: float = 0.0
    total_wait_time_us: float = 0.0
    total_work_time_us: float = 0.0
    waves: float = 0.0
    utilization: float = 0.0

    @property
    def duration_us(self) -> float:
        """Wall-clock time from the first block starting to the last ending."""
        if self.start_time_us is math.inf:
            return 0.0
        return self.end_time_us - self.start_time_us


@dataclass(eq=False)
class ExecutionTrace:
    """Complete record of one simulation run.

    Block records are materialized lazily: the simulator's hot loop appends
    plain rows (the :class:`BlockRecord` fields in declaration order) to
    :attr:`deferred_blocks`, and the first access of :attr:`blocks` turns
    them into :class:`BlockRecord` objects — in the same completion order —
    so runs whose traces are never inspected block-by-block (sweep points,
    throughput benchmarks) skip one record construction per thread block.
    Equality compares the materialized view, so two traces with identical
    content are equal regardless of which one has been inspected already.
    """

    arch: GpuArchitecture
    kernels: Dict[str, KernelStats] = field(default_factory=dict)
    total_time_us: float = 0.0
    #: Busy-wait time summed over all blocks, in completion order (what
    #: :meth:`total_wait_time_us` returns without materializing blocks).
    wait_time_us: float = 0.0
    #: Raw block rows pending materialization (simulator-internal).
    deferred_blocks: List[tuple] = field(default_factory=list, repr=False)
    _blocks: List[BlockRecord] = field(default_factory=list, repr=False)

    @property
    def blocks(self) -> List[BlockRecord]:
        """All block records, in completion order."""
        deferred = self.deferred_blocks
        if deferred:
            self._blocks.extend(BlockRecord(*row) for row in deferred)
            deferred.clear()
        return self._blocks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionTrace):
            return NotImplemented
        return (
            self.arch == other.arch
            and self.kernels == other.kernels
            and self.total_time_us == other.total_time_us
            and self.blocks == other.blocks
        )

    def blocks_of(self, kernel: str) -> List[BlockRecord]:
        """All block records of one kernel, in dispatch order."""
        records = [b for b in self.blocks if b.kernel == kernel]
        records.sort(key=lambda b: (b.dispatch_time_us, b.dispatch_index))
        return records

    # ------------------------------------------------------------------
    # Measured utilization
    # ------------------------------------------------------------------
    def measured_sm_busy_fraction(self, until: Optional[float] = None) -> float:
        """Average fraction of SM slot-time occupied by resident blocks.

        Each block contributes ``resident_time / occupancy`` SM-time because
        a block of a kernel with occupancy *k* uses ``1/k`` of an SM.
        """
        horizon = until if until is not None else self.total_time_us
        if horizon <= 0:
            return 0.0
        busy = 0.0
        for record in self.blocks:
            stats = self.kernels.get(record.kernel)
            occupancy = stats.occupancy if stats is not None else 1
            busy += record.resident_time_us / occupancy
        return busy / (horizon * self.arch.num_sms)

    def total_wait_time_us(self) -> float:
        """Sum of busy-wait time over all blocks, in completion order."""
        return self.wait_time_us

    def summary(self) -> str:
        """Human-readable multi-line summary of the run."""
        lines = [f"total time: {self.total_time_us:.2f} us"]
        for name, stats in sorted(self.kernels.items(), key=lambda kv: kv[1].launch_index):
            lines.append(
                f"  {name}: grid={stats.grid} blocks={stats.num_blocks} "
                f"waves={stats.waves:.2f} util={stats.utilization * 100:.0f}% "
                f"duration={stats.duration_us:.2f} us wait={stats.total_wait_time_us:.2f} us"
            )
        return "\n".join(lines)
