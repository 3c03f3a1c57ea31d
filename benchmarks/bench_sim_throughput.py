"""Simulator throughput benchmark: blocks simulated per second.

Unlike the other benchmarks (which regenerate tables/figures of the paper),
this one measures the *simulator itself*, so future optimisation PRs have
a trajectory to defend.  The record holds:

* ``blocks_per_sec`` — thread blocks simulated per wall-clock second on a
  fixed synthetic two-kernel pipeline (producer posts one semaphore per
  block, consumer blocks busy-wait on their producer block), which
  exercises every hot path: dispatch, SM allocation, the waiter registry
  and semaphore polling.
* ``table4_mlp_s`` — wall time of one full :func:`table4_mlp` regeneration,
  the end-to-end workload the hot-path overhaul was profiled on.
* ``attention_sweep_s`` — wall time of the GPT-3 attention graph under
  TileSync + StridedTileSync on fresh sessions: the workload whose GeMMs
  synchronize *both* operands, added to defend the shared body-segment
  cache (waits are composed per distinct plan pair, no longer rebuilt per
  column tile).
* ``sweep_cache_hit_rate`` (plus ``sweep_cache_cold_s`` /
  ``sweep_cache_replay_s``) — a small arch×policy grid swept twice through
  one :class:`~repro.pipeline.Session`: the second pass must replay every
  point from the session's sweep-result cache bit-identically, so the
  hit rate is exactly 0.5.

Every wall time is a ``TIMING`` leaf; :mod:`repro.bench.harness` gates the
rest of the record exactly against the committed
``BENCH_sim_throughput.json`` (see benchmarks/README.md, "Gates").

Pass ``--profile`` to print the cProfile top 25 (by cumulative time)
over three synthetic runs instead of benchmarking — the shared
methodology for hot-path PRs (see benchmarks/README.md).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py [--check-baseline | --profile]

or through pytest (``pytest benchmarks/bench_sim_throughput.py``).
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List

from repro.bench import format_table, harness, table4_mlp
from repro.common.dim3 import Dim3
from repro.gpu.kernel import KernelLaunch, SemPost, SemWait, simple_kernel
from repro.gpu.memory import GlobalMemory
from repro.gpu.simulator import GpuSimulator
from repro.gpu.stream import Stream

#: Fixed synthetic grid: 48 x 80 = 3840 blocks per kernel, two kernels.
SYNTHETIC_GRID = Dim3(48, 80, 1)
#: Minimum measurement repetitions (best-of is reported).
REPEATS = 3

TIMING = (
    "elapsed_s",
    "blocks_per_sec",
    "table4_mlp_s",
    "attention_sweep_s",
    "sweep_cache_cold_s",
    "sweep_cache_replay_s",
)


def _linear(tile: Dim3) -> int:
    return tile.y * SYNTHETIC_GRID.x + tile.x


def build_synthetic_launches() -> List[KernelLaunch]:
    """A producer/consumer pair with per-block tile synchronization."""
    producer = simple_kernel(
        name="synthetic_producer",
        grid=SYNTHETIC_GRID,
        block_duration_us=2.0,
        occupancy=2,
        stream=Stream(priority=0, name="producer"),
        posts_per_block=lambda tile: [SemPost("synthetic_sem", _linear(tile))],
    )
    consumer = simple_kernel(
        name="synthetic_consumer",
        grid=SYNTHETIC_GRID,
        block_duration_us=2.0,
        occupancy=2,
        stream=Stream(priority=1, name="consumer"),
        waits_per_block=lambda tile: [SemWait("synthetic_sem", _linear(tile), 1)],
    )
    return [producer, consumer]


def measure_throughput(repeats: int = REPEATS) -> Dict[str, float]:
    """Best-of-``repeats`` blocks/sec on the fixed synthetic pipeline."""
    total_blocks = 2 * SYNTHETIC_GRID.volume
    best = float("inf")
    for _ in range(repeats):
        memory = GlobalMemory()
        memory.alloc_semaphores("synthetic_sem", SYNTHETIC_GRID.volume)
        simulator = GpuSimulator(memory=memory)
        launches = build_synthetic_launches()
        start = time.perf_counter()
        result = simulator.run(launches)
        elapsed = time.perf_counter() - start
        assert len(result.trace.blocks) == total_blocks
        best = min(best, elapsed)
    return {
        "blocks": float(total_blocks),
        "elapsed_s": best,
        "blocks_per_sec": total_blocks / best,
    }


def measure_table4(repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` wall time of a full table4_mlp regeneration."""
    table4_mlp(batch_sizes=(64,))  # warm caches/imports outside the timing
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        table4_mlp()
        best = min(best, time.perf_counter() - start)
    return best


def measure_attention(repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` wall time of the dual-sync-operand attention graph."""
    from repro.models.attention import Attention
    from repro.models.config import GPT3_145B
    from repro.pipeline import Session

    workload = Attention(config=GPT3_145B, batch=1, seq=512, cached=0)
    graph = workload.to_graph()
    Session(arch=workload.arch).run(graph, scheme="cusync", policy="TileSync")  # warm
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        session = Session(arch=workload.arch)
        session.run(graph, scheme="cusync", policy="TileSync")
        session.run(graph, scheme="cusync", policy="StridedTileSync")
        best = min(best, time.perf_counter() - start)
    return best


def measure_sweep_cache() -> Dict[str, float]:
    """Sweep one small grid twice through a session; the replay must hit.

    Returns the session-level hit rate plus the cold/replay wall times.
    The replayed results are asserted bit-identical to the fresh ones
    (``SweepResult`` equality covers every value field; the diagnostic
    ``cached`` flag is excluded) — caching must never change a number.
    """
    from repro.models.mlp import GptMlp
    from repro.pipeline import Session, sweep_archs

    graph = GptMlp(batch_seq=256).to_graph()
    session = Session()
    work = sweep_archs(graph, ("V100", "A100"), policies=("TileSync", "RowSync"))
    start = time.perf_counter()
    cold = session.sweep(work, mode="serial")
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    replayed = session.sweep(work, mode="serial")
    replay_s = time.perf_counter() - start
    assert replayed == cold
    assert all(result.cached for result in replayed)
    hits, misses = session.sweep_cache_hits, session.sweep_cache_misses
    return {
        "sweep_cache_hit_rate": hits / (hits + misses),
        "sweep_cache_cold_s": cold_s,
        "sweep_cache_replay_s": replay_s,
    }


def run_experiment() -> Dict[str, float]:
    record = measure_throughput()
    record["table4_mlp_s"] = measure_table4()
    record["attention_sweep_s"] = measure_attention()
    record.update(measure_sweep_cache())
    return record


def _print(record: Dict[str, float]) -> None:
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["simulator throughput (blocks/s)", f"{record['blocks_per_sec']:,.0f}"],
                ["table4_mlp regeneration (s)", f"{record['table4_mlp_s']:.3f}"],
                ["attention sweep (s)", f"{record['attention_sweep_s']:.3f}"],
                ["sweep cache hit rate", f"{record['sweep_cache_hit_rate']:.2f}"],
            ],
            title="Simulator throughput",
        )
    )


def _check(record: Dict[str, float]) -> None:
    # Two passes over a duplicate-free grid: exactly half the points replay.
    assert record["sweep_cache_hit_rate"] == 0.5, record["sweep_cache_hit_rate"]


def test_sim_throughput():
    assert harness.main(sys.modules[__name__], ["--check-baseline"]) == 0


def profile_run(top: int = 25) -> None:
    """cProfile the synthetic pipeline and print the ``top`` entries.

    The shared methodology for hot-path PRs: profile a few full synthetic
    runs, sort by cumulative time, and attack the biggest entries (see
    benchmarks/README.md for the workflow this feeds).
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    for _ in range(3):
        memory = GlobalMemory()
        memory.alloc_semaphores("synthetic_sem", SYNTHETIC_GRID.volume)
        simulator = GpuSimulator(memory=memory)
        launches = build_synthetic_launches()
        profiler.enable()
        simulator.run(launches)
        profiler.disable()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(top)


if __name__ == "__main__":
    if "--profile" in sys.argv[1:]:
        profile_run()
    else:
        sys.exit(harness.main(sys.modules[__name__]))
