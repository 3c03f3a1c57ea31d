"""Autotuning benchmark: search wall-clock and cache-exploitation ratio.

Runs the GPT-3 MLP ``(tile, policy, arch)`` search
(:func:`repro.tune.presets.gpt3_mlp_space`) with successive halving over
the non-V100 architectures, twice through one session:

* the **cold** pass simulates every novel point and records the search
  wall time and how many of the strategy's trials the in-memory sweep
  cache already replayed (halving re-measures survivors every rung, so
  even a cold search is partly cached);
* the **warm** pass reruns the identical search against the warm session
  and must replay *everything* — zero novel simulations — demonstrating
  the cached-replay guarantee tuner reruns rely on.

``BENCH_autotune.json`` in the repository root is the committed
baseline.  A plain run refreshes it (do this deliberately);
``--check-baseline`` writes ``BENCH_autotune.latest.json`` and gates the
fresh numbers (2x wall-clock tolerance, exact winner keys, warm replay
invariants).  ``--smoke`` shrinks to one architecture, a tiny tile grid
and small shapes for CI.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_autotune.py [--smoke] [--check-baseline]

or through pytest (``pytest benchmarks/bench_autotune.py``).

JSON schema (see also benchmarks/README.md):

* ``arches`` — the arch axis searched; ``candidates`` — space size;
* ``elapsed_s`` — cold search wall time (the gated quantity);
* ``cold`` / ``warm`` — per-pass ``{trials, novel_simulations,
  cache_hits, cache_ratio, elapsed_s}`` (``cache_ratio`` = fraction of
  trials served from cache; warm must be 1.0 with zero novel points);
* ``replay_identical`` — warm trajectory bit-identical to cold;
* ``winners`` — per-arch ``{tile, policy, time_us, baseline_us,
  improvement_vs_default}`` rows from the cold search.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

from repro.bench import format_percent, format_table
from repro.models.config import TransformerConfig
from repro.pipeline import Session
from repro.tune import SuccessiveHalving, Tuner, gpt3_mlp_space
from repro.tune.presets import mlp_tile_grid

DEFAULT_ARCHES = ("A100", "H100-SXM", "RTX-4090")
SMOKE_ARCHES = ("A100",)

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_autotune.json"
)
#: Non-destructive output used by the pytest path and ``--check-baseline``.
LATEST_OUTPUT = DEFAULT_OUTPUT.replace(".json", ".latest.json")

#: Tolerated wall-clock slowdown vs the committed baseline (CI runners
#: differ from the machine that recorded it; only step-function
#: regressions should fail).  Matches bench_sim_throughput.py.
BASELINE_TOLERANCE = 2.0


def _space(smoke: bool):
    if smoke:
        # One arch, the default tile plus a 4-choice grid, tiny shapes.
        tiny = TransformerConfig(name="tiny", hidden=256, layers=2, tensor_parallel=8)
        grid = mlp_tile_grid("mlp_gemm1", "mlp_gemm2")
        return gpt3_mlp_space(
            batch_seq=96, config=tiny, arches=SMOKE_ARCHES, tile_choices=grid[:5]
        )
    return gpt3_mlp_space(arches=DEFAULT_ARCHES)


def _pass_stats(report, elapsed: float) -> Dict[str, object]:
    trials = len(report.trials)
    cached = sum(1 for trial in report.trials if trial.cached)
    return {
        "trials": trials,
        "novel_simulations": report.novel_simulations,
        "cache_hits": report.cache_hits,
        "cache_ratio": cached / trials if trials else 0.0,
        "elapsed_s": elapsed,
    }


def run_experiment(smoke: bool = False) -> Dict[str, object]:
    space = _space(smoke)
    tuner = Tuner(session=Session(), mode="serial")
    strategy = SuccessiveHalving(eta=2)

    start = time.perf_counter()
    cold = tuner.tune(space, strategy)
    cold_s = time.perf_counter() - start

    warm_start = time.perf_counter()
    warm = tuner.tune(space, strategy)
    warm_s = time.perf_counter() - warm_start

    winners = [
        {
            "arch": entry.arch,
            "tile": entry.tile,
            "policy": entry.policy,
            "time_us": entry.time_us,
            "baseline_us": entry.baseline_us,
            "improvement_vs_default": entry.improvement_vs_default,
        }
        for entry in cold.entries
    ]
    return {
        "arches": [entry.arch for entry in cold.entries],
        "candidates": len(space),
        "strategy": strategy.name,
        "elapsed_s": cold_s,
        "cold": _pass_stats(cold, cold_s),
        "warm": _pass_stats(warm, warm_s),
        "replay_identical": warm.trajectory() == cold.trajectory(),
        "winners": winners,
    }


def write_record(record: Dict[str, object], output_path: str = "") -> None:
    path = output_path or os.environ.get("BENCH_AUTOTUNE_OUT", DEFAULT_OUTPUT)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


def compare_against_baseline(
    record: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = BASELINE_TOLERANCE,
) -> List[str]:
    """Failures of ``record`` against the committed baseline (empty = pass)."""
    failures: List[str] = []
    ceiling = baseline["elapsed_s"] * tolerance
    if record["elapsed_s"] > ceiling:
        failures.append(
            f"elapsed_s {record['elapsed_s']:.3f} exceeded {ceiling:.3f} "
            f"(baseline {baseline['elapsed_s']:.3f} * {tolerance}x tolerance)"
        )

    def winner_keys(payload: Dict[str, object]) -> set:
        return {(row["arch"], row["tile"], row["policy"]) for row in payload["winners"]}

    if winner_keys(record) != winner_keys(baseline):
        failures.append(
            f"winners diverged from committed baseline: "
            f"{sorted(winner_keys(record) ^ winner_keys(baseline))}"
        )

    floor = baseline["cold"]["cache_ratio"] / tolerance
    if record["cold"]["cache_ratio"] < floor:
        failures.append(
            f"cold cache_ratio {record['cold']['cache_ratio']:.3f} fell below "
            f"{floor:.3f} (baseline {baseline['cold']['cache_ratio']:.3f} / {tolerance}x)"
        )
    return failures


def _print(record: Dict[str, object]) -> None:
    print()
    print(
        format_table(
            ["arch", "tile", "policy", "time (us)", "vs default tile"],
            [
                [
                    row["arch"],
                    row["tile"],
                    row["policy"],
                    row["time_us"],
                    format_percent(row["improvement_vs_default"] or 0.0),
                ]
                for row in record["winners"]
            ],
            title=f"Autotune [{record['strategy']}] over {record['candidates']} candidates "
            f"({record['elapsed_s']:.2f}s cold, "
            f"{record['warm']['elapsed_s']:.2f}s warm)",
        )
    )


def _check(record: Dict[str, object]) -> None:
    """Invariants every run must hold: the warm rerun replays everything
    from cache (zero novel simulations, bit-identical trajectory) and is
    a clear wall-clock win over the cold search."""
    warm = record["warm"]
    assert warm["novel_simulations"] == 0, f"warm rerun simulated: {warm}"
    assert warm["cache_ratio"] == 1.0, f"warm rerun missed the cache: {warm}"
    assert record["replay_identical"], "warm trajectory diverged from the cold search"
    assert record["cold"]["novel_simulations"] > 0, "cold search simulated nothing"
    assert warm["elapsed_s"] < record["elapsed_s"] / 2, (
        f"warm replay ({warm['elapsed_s']:.3f}s) is not a wall-clock win over "
        f"the cold search ({record['elapsed_s']:.3f}s)"
    )
    for row in record["winners"]:
        assert row["time_us"] < row["baseline_us"], (
            f"winner slower than StreamSync on {row['arch']}: {row}"
        )


def test_autotune(bench_once, benchmark):
    record = bench_once(benchmark, run_experiment, smoke=True)
    write_record(record, output_path=LATEST_OUTPUT)
    _print(record)
    _check(record)


def main(argv: List[str]) -> int:
    smoke = "--smoke" in argv
    check = "--check-baseline" in argv
    baseline = None
    if check:
        with open(DEFAULT_OUTPUT) as handle:
            baseline = json.load(handle)
    record = run_experiment(smoke=smoke)
    _print(record)
    _check(record)
    # A plain full run refreshes the committed baseline; smoke and gated
    # runs record next to it (the baseline stays authoritative).
    write_record(record, output_path=LATEST_OUTPUT if (check or smoke) else "")
    if baseline is not None:
        if smoke:
            print("note: --check-baseline gates the full search; --smoke compares wall time only")
            failures = [
                failure
                for failure in compare_against_baseline(record, baseline)
                if failure.startswith("elapsed_s")
            ]
        else:
            failures = compare_against_baseline(record, baseline)
        if failures:
            print("autotune regression vs committed BENCH_autotune.json:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(
            f"baseline gate ok: {record['elapsed_s']:.2f}s vs committed "
            f"{baseline['elapsed_s']:.2f}s (tolerance {BASELINE_TOLERANCE}x)"
        )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
