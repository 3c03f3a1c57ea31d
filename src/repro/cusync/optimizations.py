"""The W / R / T optimizations of Section IV-C.

cuSyncGen applies three optimizations on top of a base policy depending on
the grid sizes and the GPU:

* **W — avoid the wait-kernel.**  When both the producer and the consumer
  fit in fewer than two waves, the consumer cannot starve the producer of
  SMs, so the extra wait-kernel launch (and its ~6 µs launch latency) is
  unnecessary.
* **R — reorder tile loads.**  Overlap waiting on a synchronized input with
  loading the other, unsynchronized input.
* **T — avoid the custom tile processing order.**  When both kernels fit in
  at most two waves, the default block order is already fine and the atomic
  tile-counter indirection can be skipped.

The paper's policy names encode the applied optimizations, e.g.
``TileSync+WRT``; :func:`decorate_policy_name` reproduces that naming for
the benchmark tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.arch import GpuArchitecture


@dataclass(frozen=True)
class OptimizationFlags:
    """Which of the Section IV-C optimizations are enabled."""

    avoid_wait_kernel: bool = False
    reorder_loads: bool = False
    avoid_custom_tile_order: bool = False

    # ------------------------------------------------------------------
    # Convenience constructors matching the paper's suffixes
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "OptimizationFlags":
        """The "Vanilla" configuration of Table V: no optimizations."""
        return cls()

    @classmethod
    def r(cls) -> "OptimizationFlags":
        """``+R``: reorder tile loads only."""
        return cls(reorder_loads=True)

    @classmethod
    def wr(cls) -> "OptimizationFlags":
        """``+WR``: avoid the wait-kernel and reorder tile loads."""
        return cls(avoid_wait_kernel=True, reorder_loads=True)

    @classmethod
    def wrt(cls) -> "OptimizationFlags":
        """``+WRT``: all three optimizations."""
        return cls(avoid_wait_kernel=True, reorder_loads=True, avoid_custom_tile_order=True)

    @property
    def suffix(self) -> str:
        """The paper-style suffix, e.g. ``"+WRT"`` (empty when nothing is on)."""
        letters = ""
        if self.avoid_wait_kernel:
            letters += "W"
        if self.reorder_loads:
            letters += "R"
        if self.avoid_custom_tile_order:
            letters += "T"
        return f"+{letters}" if letters else ""


def auto_optimizations(
    producer_blocks: int,
    consumer_blocks: int,
    producer_occupancy: int,
    consumer_occupancy: int,
    arch: GpuArchitecture,
) -> OptimizationFlags:
    """Derive the optimization flags cuSyncGen would choose (Section IV-C).

    The wait-kernel and the custom tile order are only needed when the two
    kernels together cannot fit on the GPU at once — i.e. when either kernel
    needs two or more waves; otherwise they are pure overhead.  Reordering
    tile loads never hurts in this model, so it is always enabled.
    """
    producer_waves = producer_blocks / arch.blocks_per_wave(producer_occupancy)
    consumer_waves = consumer_blocks / arch.blocks_per_wave(consumer_occupancy)
    small = producer_waves < 2.0 and consumer_waves < 2.0
    return OptimizationFlags(
        avoid_wait_kernel=small,
        reorder_loads=True,
        avoid_custom_tile_order=small,
    )


def decorate_policy_name(policy_name: str, flags: OptimizationFlags) -> str:
    """Paper-style display name, e.g. ``TileSync+WRT``."""
    return f"{policy_name}{flags.suffix}"
