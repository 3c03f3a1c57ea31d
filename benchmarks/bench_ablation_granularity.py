"""Ablation: synchronization granularity and the sources of cuSync's benefit.

Not a table in the paper, but DESIGN.md calls out two design choices worth
isolating on the simulator:

* **Granularity** — sweep the policy from the finest (TileSync) through
  RowSync to the coarsest useful granularity (BatchSync, one semaphore per
  batch entry).  The paper's claim is that the best granularity depends on
  the workload size; the coarsest policy should converge to StreamSync-like
  behaviour.
* **Block-duration variation** — rerun the MLP with the cost model's
  deterministic jitter disabled, isolating how much of the improvement comes
  from wave quantization alone versus staggered block completion.
"""

from repro.bench import format_percent, format_table
from repro.gpu.costmodel import CostModel
from repro.models import GptMlp
from repro.pipeline import Session

POLICIES = ("TileSync", "RowSync", "BatchSync")


def _sweep(batch_seq, cost_model=None):
    times = GptMlp(batch_seq=batch_seq).best_policy(POLICIES, Session(cost_model=cost_model))
    baseline = times["StreamSync"]
    results = {"streamsync_us": baseline}
    for name in POLICIES:
        results[name] = (baseline - times[name]) / baseline
    return results


def test_granularity_ablation(bench_once, benchmark):
    rows = []
    results_by_size = {}
    for batch_seq in (256, 512, 1024):
        data = bench_once(benchmark, _sweep, batch_seq) if batch_seq == 512 else _sweep(batch_seq)
        results_by_size[batch_seq] = data
        rows.append(
            [batch_seq, f"{data['streamsync_us']:.0f}"]
            + [format_percent(data[name]) for name in POLICIES]
        )
    print()
    print(
        format_table(
            ["BxS", "StreamSync us", *POLICIES],
            rows,
            title="Ablation: GPT-3 MLP improvement vs synchronization granularity",
        )
    )
    for data in results_by_size.values():
        # Fine-grained policies must not lose to the coarsest granularity by
        # a meaningful margin anywhere.
        assert max(data["TileSync"], data["RowSync"]) >= data["BatchSync"] - 0.02


def test_jitter_ablation(bench_once, benchmark):
    jittered = _sweep(512)
    flat = bench_once(benchmark, _sweep, 512, CostModel(duration_jitter=0.0))
    print()
    print(
        format_table(
            ["configuration", "TileSync", "RowSync"],
            [
                ["with block-duration jitter", format_percent(jittered["TileSync"]), format_percent(jittered["RowSync"])],
                ["without jitter", format_percent(flat["TileSync"]), format_percent(flat["RowSync"])],
            ],
            title="Ablation: contribution of staggered block completion (BxS=512)",
        )
    )
    # Wave quantization alone must already explain most of the improvement.
    assert flat["RowSync"] > 0.10
