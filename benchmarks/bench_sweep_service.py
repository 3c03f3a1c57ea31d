"""Sweep-service benchmark: warm-store replay speedup and coalescing dedup.

Exercises the two properties the service subsystem exists for:

* **Persistence** — a cold pass simulates an arch-comparison grid through
  a :class:`~repro.service.SweepService` backed by a disk
  :class:`~repro.service.SweepResultStore`, then a brand-new session +
  store handle replays the identical grid from disk.  The record keeps
  both wall times and the replay speedup; the replayed results must be
  bit-identical with zero simulations.
* **Coalescing** — N concurrent clients submit the same grid against a
  deliberately slow fake worker; the dedup ratio (coalesced points /
  submitted points) must show every duplicate landing on the one
  in-flight evaluation.

The wall times and the speedup are ``TIMING`` leaves;
:mod:`repro.bench.harness` gates every count exactly against the
committed ``BENCH_sweep_service.json`` (see benchmarks/README.md,
"Gates").

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sweep_service.py [--check-baseline]

or through pytest (``pytest benchmarks/bench_sweep_service.py``).

JSON schema (see also benchmarks/README.md):

* ``grid_points`` — points in the persisted grid;
* ``cold_s`` / ``warm_s`` / ``warm_speedup`` — fresh simulation vs
  disk-store replay wall time;
* ``replay_identical`` — the warm results equal the cold ones;
* ``store`` — writes / hits counted by the disk store itself;
* ``coalescing`` — ``{clients, submitted, simulated, coalesced,
  dedup_ratio}`` from the concurrent-clients scenario;
* ``elapsed_s`` — wall time of the full experiment.
"""

from __future__ import annotations

import asyncio
import sys
import tempfile
import time
from typing import Dict, List

from repro.bench import format_table, harness

TIMING = ("elapsed_s", "cold_s", "warm_s", "warm_speedup")

#: Concurrent clients in the coalescing scenario.
CLIENTS = 5


def _grid():
    from repro.models.config import TransformerConfig
    from repro.models.mlp import GptMlp
    from repro.pipeline import sweep_archs

    work = []
    for name, hidden in (("svc-small", 256), ("svc-wide", 512)):
        config = TransformerConfig(name=name, hidden=hidden, layers=2, tensor_parallel=8)
        graph = GptMlp(config=config, batch_seq=96).to_graph()
        work.extend(
            sweep_archs(
                graph,
                ("V100", "A100", "H100-SXM"),
                policies=("TileSync", "RowSync", "BatchSync"),
                schemes=("cusync", "streamsync"),
            )
        )
    return work


def _result_row(result) -> List[object]:
    return [
        result.scheme,
        result.policy_label,
        result.arch_name,
        result.total_time_us,
        [[name, us] for name, us in result.kernel_durations_us],
    ]


def _run_grid(work, root) -> Dict[str, object]:
    from repro.pipeline import Session
    from repro.service import SweepResultStore, SweepService

    store = SweepResultStore(root)
    session = Session()

    async def go():
        with SweepService(session=session, store=store) as service:
            results = await service.sweep(list(work))
            return service.stats(), results

    start = time.perf_counter()
    stats, results = asyncio.run(go())
    elapsed = time.perf_counter() - start
    return {
        "elapsed_s": elapsed,
        "service": stats,
        "store": store.stats(),
        "rows": [_result_row(result) for result in results],
    }


def _run_coalescing(work) -> Dict[str, object]:
    from repro.service import SweepService
    from repro.service.fakes import FakeWorker

    worker = FakeWorker(delay_s=0.02)

    async def go():
        with SweepService(worker=worker) as service:
            jobs = await asyncio.gather(
                *[service.submit(list(work)) for _ in range(CLIENTS)]
            )
            await asyncio.gather(*[job.results() for job in jobs])
            return service.stats()

    stats = asyncio.run(go())
    submitted = stats["points_submitted"]
    return {
        "clients": CLIENTS,
        "submitted": submitted,
        "simulated": stats["points_simulated"],
        "coalesced": stats["points_coalesced"],
        "dedup_ratio": stats["points_coalesced"] / submitted if submitted else 0.0,
        "worker_calls": worker.calls,
    }


def run_experiment() -> Dict[str, object]:
    work = _grid()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="sweep-service-bench-") as root:
        cold = _run_grid(work, root)
        # A brand-new session and store handle: the only shared state is
        # the directory on disk.
        warm = _run_grid(work, root)
    coalescing = _run_coalescing(work)
    elapsed = time.perf_counter() - start
    warm_s = warm["elapsed_s"]
    return {
        "elapsed_s": elapsed,
        "grid_points": len(work),
        "cold_s": cold["elapsed_s"],
        "warm_s": warm_s,
        "warm_speedup": cold["elapsed_s"] / warm_s if warm_s > 0 else float("inf"),
        "replay_identical": warm["rows"] == cold["rows"],
        "cold_service": cold["service"],
        "warm_service": warm["service"],
        "store": {
            "writes": cold["store"]["writes"],
            "hits": warm["store"]["hits"],
        },
        "coalescing": coalescing,
    }


def _print(record: Dict[str, object]) -> None:
    coalescing = record["coalescing"]
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["grid points", record["grid_points"]],
                ["cold sweep (s)", f"{record['cold_s']:.3f}"],
                ["warm-store replay (s)", f"{record['warm_s']:.3f}"],
                ["replay speedup", f"{record['warm_speedup']:.1f}x"],
                ["replay identical", str(record["replay_identical"])],
                ["store writes / hits", f"{record['store']['writes']} / {record['store']['hits']}"],
                [
                    "coalescing",
                    f"{coalescing['clients']} clients, {coalescing['submitted']} submitted, "
                    f"{coalescing['simulated']} simulated",
                ],
                ["dedup ratio", f"{coalescing['dedup_ratio']:.3f}"],
            ],
            title=f"Sweep service ({record['elapsed_s']:.2f}s)",
        )
    )


def _check(record: Dict[str, object]) -> None:
    """Subsystem-shape sanity, independent of any baseline."""
    points = record["grid_points"]
    assert record["cold_service"]["points_simulated"] == points
    assert record["store"]["writes"] == points
    # The entire warm pass came from the disk store: no simulations, every
    # point a store hit, results bit-identical.
    assert record["warm_service"]["points_simulated"] == 0, record["warm_service"]
    assert record["warm_service"]["store_hits"] == points
    assert record["store"]["hits"] == points
    assert record["replay_identical"], "warm-store replay diverged from the cold run"
    assert record["warm_speedup"] > 2.0, (
        f"replaying from the store should be a clear win: {record['warm_speedup']:.2f}x"
    )
    coalescing = record["coalescing"]
    # Exactly one evaluation per novel point, every duplicate coalesced.
    assert coalescing["worker_calls"] == points
    assert coalescing["simulated"] == points
    assert coalescing["coalesced"] == coalescing["submitted"] - points
    expected = (coalescing["clients"] - 1) / coalescing["clients"]
    assert coalescing["dedup_ratio"] == expected, coalescing


def test_sweep_service():
    assert harness.main(sys.modules[__name__], ["--check-baseline"]) == 0


if __name__ == "__main__":
    sys.exit(harness.main(sys.modules[__name__]))
