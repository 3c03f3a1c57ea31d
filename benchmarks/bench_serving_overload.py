"""Overload serving benchmark: admission control and preemption under 2x load.

Runs one seeded mixed-priority :class:`~repro.serving.ServingScenario`
at roughly twice the system's service capacity, in four cells —
``{none, priority} x {streamsync, cusync}`` — where ``none`` is the
legacy queue-forever discipline and ``priority`` is the full admission
stack (bounded queue, deadline shedding, priority preemption).  The
serving loop is bit-deterministic for its seed, so
:mod:`repro.bench.harness` gates every latency/shed number in the record
exactly against the committed ``BENCH_serving_overload.json`` (see
benchmarks/README.md, "Gates").  The record also carries
``replay_identical``: the cusync priority cell is run twice in fresh
sessions and the reports compared ``==``, pinning the overload
determinism contract inside the benchmark itself.

The two headline numbers:

* ``cusync_goodput_advantage`` — cusync's SLO-goodput over streamsync's
  under the priority policy.  Queueing amplifies per-iteration latency
  differences, so overload is where tile-level sync pays the most.
* ``p99_bound_improvement`` — per scheme, how much the priority policy
  shrinks p99 vs queue-forever.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serving_overload.py [--check-baseline]

or through pytest (``pytest benchmarks/bench_serving_overload.py``).

JSON schema (see also benchmarks/README.md):

* ``requests`` / ``rate_rps`` / ``seed`` / ``slo_us`` — the scenario;
* ``cells`` — ``{"policy/scheme": LatencyReport.summary()}``:
  percentiles, goodput, ``shed`` / ``preemptions`` /
  ``restarted_tokens`` / ``kv_reserved_peak`` / ``deadline_hits`` and
  per-priority-class stats;
* ``cusync_goodput_advantage`` — the headline number;
* ``replay_identical`` — the determinism pin (must be true);
* ``elapsed_s`` — wall time of all cells.
"""

from __future__ import annotations

import sys
import time
from typing import Dict

from repro.bench import format_table, harness

TIMING = ("elapsed_s",)

#: The seeded overload scenario: ~2x the measured service capacity of the
#: tiny reference config, mixed priorities (half best-effort), finite
#: deadlines.  Changing any of these is a baseline refresh.
REQUESTS = 48
RATE_RPS = 10_000.0
SEED = 7
SLO_US = 6_000.0
MAX_KV_TOKENS = 1024
MAX_QUEUE = 6


def _scenario(shed: bool):
    from dataclasses import replace

    from repro.models.config import TransformerConfig
    from repro.serving import PoissonArrivals, ServingScenario

    config = TransformerConfig(
        name="srv-tiny", hidden=256, layers=2, tensor_parallel=8
    )
    scenario = ServingScenario(
        arrivals=PoissonArrivals(
            rate_rps=RATE_RPS,
            prompt_tokens=(16, 96),
            decode_tokens=(2, 8),
            seed=SEED,
            deadline_slack_us=(3_000.0, 12_000.0),
            priorities=(0, 0, 1, 2),
        ),
        requests=REQUESTS,
        config=config,
        max_batch=4,
        max_kv_tokens=MAX_KV_TOKENS,
        max_prefill_tokens=128,
        slo_us=SLO_US,
        # Watchdogs sized far above the workload: they must never trip
        # here, but a runaway regression fails structurally, not by hang.
        max_iterations=100_000,
        max_sim_time_us=1e9,
    )
    if shed:
        scenario = replace(
            scenario, shed_policy="priority", max_queue=MAX_QUEUE, preemption=True
        )
    return scenario


def run_experiment() -> Dict[str, object]:
    from repro.pipeline import Session
    from repro.serving import ServingSimulator

    start = time.perf_counter()
    cells: Dict[str, object] = {}
    for policy in ("none", "priority"):
        for scheme in ("streamsync", "cusync"):
            report = ServingSimulator(scheme=scheme, session=Session()).run(
                _scenario(shed=policy == "priority")
            )
            cells[f"{policy}/{scheme}"] = report.summary()
    # Determinism pin: the headline cell replays bit-identically.
    replay = [
        ServingSimulator(scheme="cusync", session=Session()).run(
            _scenario(shed=True)
        )
        for _ in range(2)
    ]
    elapsed = time.perf_counter() - start
    streamsync_goodput = cells["priority/streamsync"]["goodput_rps"]
    cusync_goodput = cells["priority/cusync"]["goodput_rps"]
    return {
        "elapsed_s": elapsed,
        "requests": REQUESTS,
        "rate_rps": RATE_RPS,
        "seed": SEED,
        "slo_us": SLO_US,
        "max_kv_tokens": MAX_KV_TOKENS,
        "max_queue": MAX_QUEUE,
        "cells": cells,
        "cusync_goodput_advantage": cusync_goodput / streamsync_goodput - 1.0,
        "replay_identical": replay[0] == replay[1],
        "p99_bound_improvement": {
            scheme: 1.0
            - cells[f"priority/{scheme}"]["p99_total_us"]
            / cells[f"none/{scheme}"]["p99_total_us"]
            for scheme in ("streamsync", "cusync")
        },
    }


def _print(record: Dict[str, object]) -> None:
    rows = []
    for cell, summary in record["cells"].items():
        rows.append(
            [
                cell,
                f"{summary['p99_total_us']:.0f}",
                f"{summary['goodput_rps']:.1f}",
                f"{summary['completed']}",
                f"{summary['shed']}",
                f"{summary['preemptions']}",
                f"{summary['deadline_hits']}",
            ]
        )
    print()
    print(
        format_table(
            ["cell", "p99 us", "goodput r/s", "done", "shed", "preempt", "dl hits"],
            rows,
            title=(
                f"Overload: {record['requests']} reqs @ {record['rate_rps']:.0f} r/s, "
                f"cusync goodput +{record['cusync_goodput_advantage']:.1%} "
                f"({record['elapsed_s']:.2f}s)"
            ),
        )
    )


def _check(record: Dict[str, object]) -> None:
    """Subsystem-shape sanity, independent of any baseline."""
    assert record["replay_identical"], "overload run must replay bit-identically"
    for cell, summary in record["cells"].items():
        policy, _scheme = cell.split("/")
        # Every request resolves terminally; KV never exceeds the budget.
        assert summary["completed"] + summary["shed"] == record["requests"], (
            cell,
            summary,
        )
        assert summary["kv_reserved_peak"] <= record["max_kv_tokens"], (cell, summary)
        if policy == "none":
            assert summary["shed"] == 0 and summary["preemptions"] == 0, cell
        else:
            # 2x overload with a bounded queue must actually shed and
            # preempt; the top class is always fully served and shedding
            # concentrates monotonically on the lower classes.
            assert summary["shed"] > 0 and summary["preemptions"] > 0, cell
            classes = {c["priority"]: c for c in summary["priority_classes"]}
            assert classes[2]["shed"] == 0, cell
            assert classes[0]["shed"] >= classes[1]["shed"] >= classes[2]["shed"], cell
    # Under cusync the faster iterations protect the whole priority
    # ladder: only the best-effort class is ever shed.
    cusync_classes = {
        c["priority"]: c
        for c in record["cells"]["priority/cusync"]["priority_classes"]
    }
    assert cusync_classes[1]["shed"] == 0 and cusync_classes[2]["shed"] == 0
    # The acceptance property: tile-level sync wins under overload.
    for policy in {cell.split("/")[0] for cell in record["cells"]}:
        assert (
            record["cells"][f"{policy}/cusync"]["goodput_rps"]
            >= record["cells"][f"{policy}/streamsync"]["goodput_rps"]
        ), policy
    assert record["cusync_goodput_advantage"] >= 0.0
    for improvement in record["p99_bound_improvement"].values():
        assert improvement > 0.0  # shedding bounds the tail for every scheme


def test_serving_overload():
    assert harness.main(sys.modules[__name__], ["--check-baseline"]) == 0


if __name__ == "__main__":
    sys.exit(harness.main(sys.modules[__name__]))
