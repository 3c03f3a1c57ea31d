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

:mod:`repro.bench.harness` gates the winners, trial counts and cache
ratios exactly against the committed ``BENCH_autotune.json`` (see
benchmarks/README.md, "Gates").

Run standalone::

    PYTHONPATH=src python benchmarks/bench_autotune.py [--check-baseline]

or through pytest (``pytest benchmarks/bench_autotune.py``).

JSON schema (see also benchmarks/README.md):

* ``arches`` — the arch axis searched; ``candidates`` — space size;
* ``elapsed_s`` — cold search wall time;
* ``cold`` / ``warm`` — per-pass ``{trials, novel_simulations,
  cache_hits, cache_ratio, elapsed_s}`` (``cache_ratio`` = fraction of
  trials served from cache; warm must be 1.0 with zero novel points);
* ``replay_identical`` — warm trajectory bit-identical to cold;
* ``winners`` — per-arch ``{tile, policy, time_us, baseline_us,
  improvement_vs_default}`` rows from the cold search.
"""

from __future__ import annotations

import sys
import time
from typing import Dict

from repro.bench import format_percent, format_table, harness
from repro.pipeline import Session
from repro.tune import SuccessiveHalving, Tuner, gpt3_mlp_space

ARCHES = ("A100", "H100-SXM", "RTX-4090")

TIMING = ("elapsed_s", "cold.elapsed_s", "warm.elapsed_s")


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


def run_experiment() -> Dict[str, object]:
    space = gpt3_mlp_space(arches=ARCHES)
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


def test_autotune():
    assert harness.main(sys.modules[__name__], ["--check-baseline"]) == 0


if __name__ == "__main__":
    sys.exit(harness.main(sys.modules[__name__]))
