"""Chaos sweep: recovery cost and correctness under injected faults.

Runs one sweep grid twice in process mode — fault-free, then under a
seeded :class:`~repro.testing.faults.FaultPlan` that faults a large
share of the points (worker crashes, evaluation errors, corrupted result
payloads, and a deliberately unrecoverable point) with
``on_error="collect"`` and ``retries=2`` — and checks the acceptance
invariant: every point comes back either bit-identical to the fault-free
sweep or as a structured ``SweepFailure``, and no failed point leaks
into the sweep-result cache.

The wall-clock ratio between the two sweeps is reported as the price of
recovery (retries, backoff and pool respawns).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_chaos_sweep.py
"""

import math
import sys
import time

from repro.models import GptMlp, TransformerConfig
from repro.pipeline import Session, SweepFailure, SweepResult
from repro.testing import FaultPlan, FaultSpec, inject_faults

POLICIES = ("TileSync", "RowSync", "StridedTileSync")


def _grid():
    config = TransformerConfig(name="chaos", hidden=1024, layers=2, tensor_parallel=8)
    graph = GptMlp(config=config, batch_seq=512).to_graph()
    return graph, ("V100", "A100")


def _plan(num_points):
    seeded = FaultPlan.seeded(
        num_points, seed=6, crash=0.15, error=0.2, corrupt_result=0.15
    )
    unrecoverable = next(
        point for point in range(num_points) if point not in seeded.fault_points
    )
    plan = FaultPlan(
        list(seeded.faults)
        + [FaultSpec(kind="error", point=unrecoverable, attempts=(0, 1, 2))],
        seed=6,
    )
    return plan, unrecoverable


def chaos_sweep():
    graph, arches = _grid()
    num_points = len(POLICIES) * len(arches)
    plan, unrecoverable = _plan(num_points)

    session = Session()
    started = time.perf_counter()
    baseline = session.sweep(
        graph, policies=POLICIES, arches=arches, mode="process", cache=False
    )
    clean_s = time.perf_counter() - started

    started = time.perf_counter()
    with inject_faults(plan):
        chaotic = session.sweep(
            graph,
            policies=POLICIES,
            arches=arches,
            mode="process",
            on_error="collect",
            retries=2,
        )
    chaos_s = time.perf_counter() - started

    recovered = failed = 0
    for position, (result, reference) in enumerate(zip(chaotic, baseline)):
        if isinstance(result, SweepFailure):
            failed += 1
            assert position == unrecoverable, (
                f"point {position} failed but only {unrecoverable} was unrecoverable: "
                + result.describe()
            )
            continue
        assert isinstance(result, SweepResult)
        assert result.total_time_us == reference.total_time_us, (
            f"point {position} not bit-identical after recovery"
        )
        assert result.kernel_durations_us == reference.kernel_durations_us
        recovered += 1
    assert failed == 1
    assert session.sweep_cache_size == num_points - 1, "failed point was cached"
    for cached in session._sweep_cache.values():
        assert math.isfinite(cached.total_time_us), "poisoned cache entry"

    return {
        "mode": "process",
        "points": num_points,
        "faulted_points": len(plan.fault_points),
        "fault_fraction": plan.fault_fraction(num_points),
        "recovered": recovered,
        "structured_failures": failed,
        "clean_sweep_s": clean_s,
        "chaos_sweep_s": chaos_s,
        "recovery_overhead_x": chaos_s / clean_s if clean_s > 0 else float("inf"),
    }


def main():
    stats = chaos_sweep()
    print("chaos sweep")
    for key, value in stats.items():
        if isinstance(value, float):
            print(f"  {key:>20}: {value:.3f}")
        else:
            print(f"  {key:>20}: {value}")
    print(
        f"  invariant held: {stats['recovered']}/{stats['points'] - 1} points "
        "bit-identical, 1 structured failure, 0 poisoned cache entries"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
