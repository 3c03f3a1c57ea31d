"""Serving benchmark: latency percentiles under open-loop load, per scheme.

Runs one seeded :class:`~repro.serving.ServingScenario` (Poisson
arrivals, mixed prompt/decode lengths) under every execution scheme via
:func:`repro.bench.serving_comparison` and records per-scheme p50/p99,
TTFT, throughput, SLO-goodput and the session cache counters.  The
serving loop is bit-deterministic for its seed, so
:mod:`repro.bench.harness` gates every number in the record except
``elapsed_s`` exactly against the committed ``BENCH_serving.json`` (see
benchmarks/README.md, "Gates").

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serving.py [--check-baseline]

or through pytest (``pytest benchmarks/bench_serving.py``).

JSON schema (see also benchmarks/README.md):

* ``requests`` / ``rate_rps`` / ``seed`` — the open-loop scenario;
* ``schemes`` — ``{scheme: LatencyReport.summary()}`` per scheme run:
  ``p50_total_us`` / ``p99_total_us`` / ``p50_ttft_us`` /
  ``goodput_rps`` / ``iterations`` plus ``sweep_cache_hits`` /
  ``sweep_cache_misses`` (how much of the load the session cache
  absorbed);
* ``cusync_p99_improvement`` — 1 - cusync p99 / streamsync p99, the
  headline number;
* ``elapsed_s`` — wall time of the full comparison.
"""

from __future__ import annotations

import sys
import time
from typing import Dict

from repro.bench import format_table, harness, serving_comparison

TIMING = ("elapsed_s",)

#: The seeded reference scenario.  Changing any of these is a baseline
#: refresh, not a regression.
REQUESTS = 48
RATE_RPS = 400.0
SEED = 7
SLO_US = 5_000.0


def run_experiment() -> Dict[str, object]:
    start = time.perf_counter()
    rows = serving_comparison(
        requests=REQUESTS,
        rate_rps=RATE_RPS,
        seed=SEED,
        schemes=("streamsync", "streamk", "cusync"),
        slo_us=SLO_US,
    )
    elapsed = time.perf_counter() - start
    by_scheme = {row["scheme"]: row for row in rows}
    streamsync_p99 = by_scheme["streamsync"]["p99_total_us"]
    cusync_p99 = by_scheme["cusync"]["p99_total_us"]
    return {
        "elapsed_s": elapsed,
        "requests": REQUESTS,
        "rate_rps": RATE_RPS,
        "seed": SEED,
        "slo_us": SLO_US,
        "schemes": by_scheme,
        "cusync_p99_improvement": 1.0 - cusync_p99 / streamsync_p99,
    }


def _print(record: Dict[str, object]) -> None:
    rows = []
    for scheme, summary in record["schemes"].items():
        rows.append(
            [
                scheme,
                f"{summary['p50_total_us']:.0f}",
                f"{summary['p99_total_us']:.0f}",
                f"{summary['p50_ttft_us']:.0f}",
                f"{summary['goodput_rps']:.1f}",
                f"{summary['sweep_cache_hits']}/{summary['iterations']}",
            ]
        )
    print()
    print(
        format_table(
            ["scheme", "p50 us", "p99 us", "ttft p50 us", "goodput r/s", "cache hits"],
            rows,
            title=(
                f"Serving: {record['requests']} reqs @ {record['rate_rps']:.0f} r/s, "
                f"cusync p99 -{record['cusync_p99_improvement']:.1%} "
                f"({record['elapsed_s']:.2f}s)"
            ),
        )
    )


def _check(record: Dict[str, object]) -> None:
    """Subsystem-shape sanity, independent of any baseline."""
    schemes = record["schemes"]
    for scheme, summary in schemes.items():
        assert summary["completed"] == record["requests"], (scheme, summary)
        # Repeated batch shapes must replay from the session sweep cache.
        assert summary["sweep_cache_hits"] > 0, (scheme, summary)
        assert (
            summary["sweep_cache_hits"] + summary["sweep_cache_misses"]
            == summary["iterations"]
        ), (scheme, summary)
    # The acceptance property: tile-level sync is no worse at the tail.
    assert (
        schemes["cusync"]["p99_total_us"] <= schemes["streamsync"]["p99_total_us"]
    ), record["cusync_p99_improvement"]
    assert record["cusync_p99_improvement"] >= 0.0


def test_serving():
    assert harness.main(sys.modules[__name__], ["--check-baseline"]) == 0


if __name__ == "__main__":
    sys.exit(harness.main(sys.modules[__name__]))
