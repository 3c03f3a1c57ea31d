#!/usr/bin/env python3
"""Mixed per-edge policies: one graph, different policies on different edges.

The paper's central knob is the synchronization policy (Section III-E).
This example shows the first-class policy space on a fan-out pipeline —
one producer GeMM feeding two consumer GeMMs:

1. **Per-edge assignment**: the left edge synchronizes under ``TileSync``
   (finest overlap) while the sibling right edge uses ``RowSync`` (fewest
   synchronizations), in the *same* execution.  The producer posts one
   semaphore array per distinct policy; each consumer waits on its own.
2. **Registry extension**: a custom ``HalfRowSync`` family (two semaphores
   per row) is registered with ``register_policy`` and dropped into the
   grid like any built-in.
3. **Multi-graph sweep**: the full ``sweep_policies`` grid of both graph
   variants is evaluated in one ``Session.sweep`` call, and a second call
   replays every point bit-identically from the session's sweep cache.

Run with:  PYTHONPATH=src python examples/mixed_policy_pipeline.py
"""

from repro.cusync import (
    PolicyAssignment,
    PolicySpec,
    RowSync,
    SyncPolicy,
    register_policy,
    registered_policies,
)
from repro.kernels import GeLU, GemmConfig, GemmKernel, GemmProblem
from repro.pipeline import Edge, PipelineGraph, Session, StageSpec, sweep_policies


def build_graph(name="fanout_mlp"):
    """One producer GeMM whose output XW1 feeds two consumer GeMMs."""
    config = GemmConfig(tile_m=64, tile_n=64, tile_k=32)
    producer = GemmKernel(
        "gemm0", GemmProblem(m=256, n=512, k=1024, a="X", b="W1", c="XW1"),
        config, epilogue=GeLU(),
    )
    left = GemmKernel(
        "gemm_left", GemmProblem(m=256, n=512, k=512, a="XW1", b="WL", c="OUTL"),
        config, sync_inputs=("XW1",),
    )
    right = GemmKernel(
        "gemm_right", GemmProblem(m=256, n=512, k=512, a="XW1", b="WR", c="OUTR"),
        config, sync_inputs=("XW1",),
    )
    return PipelineGraph(
        stages=[StageSpec("gemm0", producer), StageSpec("gemm_left", left),
                StageSpec("gemm_right", right)],
        edges=[Edge("gemm0", "gemm_left", tensor="XW1"),
               Edge("gemm0", "gemm_right", tensor="XW1")],
        name=name,
    )


class HalfRowSync(SyncPolicy):
    """A custom family: each row of tiles is split into two semaphores."""

    name = "HalfRowSync"

    def num_semaphores(self, grid):
        return 2 * grid.y * grid.z

    def semaphore_index(self, tile, grid):
        half = 1 if tile.x >= (grid.x + 1) // 2 else 0
        return (tile.z * grid.y + tile.y) * 2 + half

    def expected_value(self, tile, grid):
        first = (grid.x + 1) // 2
        return first if tile.x < first else grid.x - first


def main():
    session = Session()
    graph = build_graph()

    baseline = session.run(graph, scheme="streamsync").total_time_us
    print(f"StreamSync baseline        : {baseline:9.1f} us")

    # -- 1. Mixed per-edge assignment ---------------------------------
    mixed = PolicyAssignment(
        default="TileSync",
        edges={("gemm0", "gemm_right", "XW1"): "RowSync"},
    )
    for label, policy in (
        ("uniform TileSync", PolicySpec("TileSync")),
        ("uniform RowSync", PolicySpec("RowSync")),
        (f"mixed  {mixed.label()}", mixed),
    ):
        t = session.run(graph, scheme="cusync", policy=policy).total_time_us
        print(f"cuSync {label:34s}: {t:9.1f} us ({(baseline - t) / baseline * 100:+5.1f}%)")

    # -- 2. A user-registered policy family ---------------------------
    if "HalfRowSync" not in registered_policies():
        register_policy("HalfRowSync", lambda params, ctx: HalfRowSync())
    t = session.run(graph, scheme="cusync", policy="HalfRowSync").total_time_us
    print(f"cuSync custom HalfRowSync            : {t:9.1f} us ({(baseline - t) / baseline * 100:+5.1f}%)")

    # -- 3. Multi-graph, mixed-policy sweep, then a cached replay ------
    other = build_graph(name="fanout_mlp_v2")
    work = (
        sweep_policies(graph, ("TileSync", "RowSync", "HalfRowSync"), mixed=True)
        + sweep_policies(other, ("TileSync", "RowSync"))
    )
    serial = session.sweep(list(work), mode="serial")
    replayed = session.sweep(list(work), mode="serial")
    assert replayed == serial and all(r.cached for r in replayed), (
        "a cached replay must be bit-identical"
    )
    best = min(serial, key=lambda r: r.total_time_us)
    print(f"\nswept {len(serial)} (graph, policy) points across 2 graphs "
          f"(a second sweep replayed all of them from the cache)")
    print(f"best point: {best.graph_label} under {best.policy_label} "
          f"at {best.total_time_us:.1f} us")


if __name__ == "__main__":
    main()
