#!/usr/bin/env python3
"""Synchronizing the five kernels of GPT-3's attention block.

The attention block (paper Figure 2b) chains five dependent kernels: the
fused QKV GeMM, the attention-score GeMM, a fused Softmax-Dropout, the
value GeMM and the output projection.  The score and value GeMMs depend on
*strided column slices* of the QKV GeMM output, which is the dependence the
StridedSync policy was designed for (Figure 5b).

This example runs the block in both inference phases — prompt processing
(S' = 0) and token generation (S = 1, growing KV cache) — under StreamSync
and every cuSync policy family, and also demonstrates functional simulation
on a scaled-down configuration to verify numerical equivalence.

Run with:  python examples/attention_pipeline.py
"""

import numpy as np

from repro.bench import format_percent, format_table
from repro.models import Attention, TransformerConfig
from repro.pipeline import Session

POLICIES = ("TileSync", "RowSync", "StridedTileSync")


def timing_study():
    session = Session()
    rows = []
    configs = [
        ("prompt", dict(batch=1, seq=512, cached=0)),
        ("prompt", dict(batch=1, seq=1024, cached=0)),
        ("token-gen", dict(batch=1, seq=1, cached=1024)),
        ("token-gen", dict(batch=4, seq=1, cached=2048)),
    ]
    for phase, kwargs in configs:
        # One graph per configuration, reused across the baseline and all
        # three policy families.
        graph = Attention(**kwargs).to_graph()
        baseline = session.run(graph, scheme="streamsync").total_time_us
        cells = [phase, kwargs["batch"], kwargs["seq"], kwargs["cached"], f"{baseline:.0f}"]
        for policy in POLICIES:
            time_us = session.run(graph, scheme="cusync", policy=policy).total_time_us
            cells.append(format_percent((baseline - time_us) / baseline))
        rows.append(cells)
    print(
        format_table(
            ["phase", "B", "S", "S'", "StreamSync us", *POLICIES],
            rows,
            title="GPT-3 Attention: cuSync improvement over StreamSync per policy",
        )
    )


def functional_check():
    tiny = TransformerConfig(name="tiny", hidden=256, layers=1, tensor_parallel=8)
    workload = Attention(config=tiny, batch=1, seq=64, cached=0, dropout=0.0)
    result = Session().run(
        workload.to_graph(),
        scheme="cusync",
        policy="StridedTileSync",
        functional=True,
        tensors=workload.input_tensors(),
    )
    reference = workload.reference_output()
    error = np.abs(result.tensor("XW12") - reference).max()
    print(f"\nFunctional check (tiny config, StridedTileSync): max |error| = {error:.2e}")
    assert error < 1e-2


def main():
    timing_study()
    functional_check()


if __name__ == "__main__":
    main()
