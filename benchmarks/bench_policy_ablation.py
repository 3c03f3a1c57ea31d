"""Policy-space ablation: uniform families vs mixed per-edge assignments.

Exercises the first-class policy API end to end — ``PolicySpec`` grids via
``sweep_policies``, hand-built ``PolicyAssignment`` mixes, and one
multi-graph ``Session.sweep(mode="serial")`` call over all five model
workloads (GPT-3 MLP, LLaMA MLP, GPT-3 attention, ResNet-38 and VGG-19
conv chains).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_policy_ablation.py

or through pytest (``pytest benchmarks/bench_policy_ablation.py``).
"""

import sys

from repro.bench import format_percent, format_table, policy_ablation


def _print(rows, title):
    print()
    print(
        format_table(
            ["workload", "policy", "mixed", "time (us)", "wait (us)", "vs streamsync"],
            [
                [
                    row["workload"],
                    row["policy"],
                    "yes" if row["mixed"] else "",
                    row["total_time_us"],
                    row["wait_time_us"],
                    format_percent(row["improvement"]),
                ]
                for row in rows
            ],
            title=title,
        )
    )


def _check(rows):
    """Paper-shape sanity: five workloads; the MLP and conv chains improve
    under some cusync policy, attention stays within the small-overhead
    band (its gains are size-dependent, Figure 6), and every mixed
    assignment ran to completion."""
    workloads = {row["workload"] for row in rows}
    assert len(workloads) == 5, f"expected 5 workloads, got {sorted(workloads)}"
    for workload in workloads:
        best = max(
            row["improvement"] for row in rows
            if row["workload"] == workload and row["policy"] != "streamsync"
        )
        if workload.startswith("attn"):
            assert best > -0.02, f"attention overhead out of band: {best:.4f}"
        else:
            assert best > 0.0, f"no cusync policy improved {workload}"
    assert any(row["mixed"] for row in rows), "no mixed-assignment points ran"


def test_policy_ablation(bench_once, benchmark):
    rows = bench_once(benchmark, policy_ablation)
    _print(rows, "Policy ablation: TileSync / RowSync / StridedSync / mixed per-edge")
    _check(rows)


def main():
    rows = policy_ablation()
    _print(rows, "Policy ablation: TileSync / RowSync / StridedSync / mixed per-edge")
    _check(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
