#!/usr/bin/env python3
"""Quickstart: one immutable pipeline graph, every execution scheme.

This is the paper's running example (Figure 4a): a small MLP made of two
dependent GeMMs, ``XW1 = GeLU(X @ W1)`` and ``XW12 = XW1 @ W2``.  The script

1. describes the pair **once** as an immutable ``PipelineGraph``,
2. runs that same graph under CUDA stream synchronization (the baseline)
   and under cuSync with the TileSync and RowSync policies — no kernel is
   ever rebuilt, each run just re-binds per-execution state,
3. verifies that all three produce bit-identical results, and
4. reports the simulated execution times and the improvement.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.gpu import TESLA_V100
from repro.kernels import GeLU, GemmConfig, GemmKernel, GemmProblem
from repro.pipeline import Edge, PipelineGraph, Session, StageSpec


def build_graph():
    """Two dependent GeMMs: the producer writes XW1, the consumer reads it."""
    problem1 = GemmProblem(m=256, n=512, k=1024, a="X", b="W1", c="XW1")
    problem2 = GemmProblem(m=256, n=1024, k=512, a="XW1", b="W2", c="XW12")
    config = GemmConfig(tile_m=64, tile_n=64, tile_k=32)
    producer = GemmKernel("gemm1", problem1, config, epilogue=GeLU())
    consumer = GemmKernel("gemm2", problem2, config, sync_inputs=("XW1",))
    return PipelineGraph(
        stages=[StageSpec("gemm1", producer), StageSpec("gemm2", consumer)],
        edges=[Edge("gemm1", "gemm2", tensor="XW1")],
    )


def main():
    rng = np.random.default_rng(0)
    tensors = {
        "X": rng.standard_normal((256, 1024)).astype(np.float32),
        "W1": (rng.standard_normal((1024, 512)) * 0.03).astype(np.float32),
        "W2": (rng.standard_normal((512, 1024)) * 0.03).astype(np.float32),
    }
    reference = GeLU().apply(tensors["X"] @ tensors["W1"]) @ tensors["W2"]

    # The graph is built exactly once; the session re-binds its kernels for
    # every run (scheme, policy, functional or not) without rebuilding them.
    graph = build_graph()
    session = Session(arch=TESLA_V100)

    baseline = session.run(graph, scheme="streamsync", functional=True, tensors=dict(tensors))
    print(f"StreamSync            : {baseline.total_time_us:9.1f} us")
    assert np.allclose(baseline.tensor("XW12"), reference, atol=1e-3)

    for policy in ("TileSync", "RowSync"):
        result = session.run(
            graph, scheme="cusync", policy=policy, functional=True, tensors=dict(tensors)
        )
        improvement = (baseline.total_time_us - result.total_time_us) / baseline.total_time_us
        print(
            f"cuSync {policy:14s}: {result.total_time_us:9.1f} us "
            f"({improvement * 100:+.1f}% vs StreamSync)"
        )
        assert np.allclose(result.tensor("XW12"), reference, atol=1e-3)

    print("\nAll execution schemes produced identical results from one graph.")


if __name__ == "__main__":
    main()
