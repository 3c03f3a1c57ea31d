#!/usr/bin/env python3
"""Describing dependences in the cuSyncGen DSL and generating policies.

Reproduces the three DSL programs of the paper's Figure 5 — the MLP, the
Attention block and a pair of Conv2Ds — runs the cuSyncGen compiler over
them (bounds checking, policy generation, tile-order generation, CUDA
source emission), and finally auto-tunes the generated policies for GPT-3's
MLP on the simulator with ``repro.tune``.

Run with:  PYTHONPATH=src python examples/dsl_codegen.py
"""

from repro.dsl import CuSyncGen, Dep, Dim, ForAll, Grid, Range, Tile
from repro.dsl.cuda_codegen import emit_generated_header
from repro.models import GptMlp
from repro.pipeline import Session, SweepPoint
from repro.tune import SearchSpace, Tuner

# Shapes for GPT-3's MLP at B*S = 512 with 256x256 tiles (Table IV).
TILE_M = TILE_N = 256
H = 12288
BS = 512


def mlp_program():
    """Figure 5a: the second GeMM's tile needs every column tile of its row."""
    x, y = Dim("x"), Dim("y")
    grid1 = Grid(x, y, (H // 2) // TILE_N, BS // TILE_M, name="g1")
    grid2 = Grid(x, y, H // TILE_N, BS // TILE_M, name="g2")
    dep = Dep((grid2, Tile(x, y)), (grid1, ForAll(Tile(x, y), x, Range(grid1.x_size))))
    return dep


def attention_program():
    """Figure 5b (first dependence): P's tile needs the Q and K slices of XQKV."""
    x, y = Dim("x"), Dim("y")
    qkv_cols = (3 * H // 8) // TILE_N       # 18 column tiles
    stride = (H // 8) // TILE_N             # 6 tiles per Q/K/V slice
    grid1 = Grid(x, y, qkv_cols, BS // TILE_M, name="g1")
    grid_p = Grid(x, y, stride, BS // TILE_M, name="gP")
    dep = Dep(
        (grid_p, Tile(x, y)),
        (grid1, Tile(x, y), Tile(x + stride, y), Tile(x + 2 * stride, y)),
    )
    return dep


def conv_program():
    """Figure 5c: each tile of the second Conv2D maps back through x // (R*S)."""
    x, y = Dim("x"), Dim("y")
    pixels = 28 * 28 // 128
    grid1 = Grid(x, y, 1, pixels, name="conv1")
    grid2 = Grid(x, y, 9, pixels, name="conv2")
    return Dep((grid2, Tile(x, y)), (grid1, Tile(x // 9, y)))


def main():
    generator = CuSyncGen()
    for name, dep in (("MLP", mlp_program()), ("Attention", attention_program()), ("Conv2D", conv_program())):
        generated = generator.generate(dep)
        print(f"=== {name} dependence ===")
        print(f"  producer tiles per consumer tile : {generated.dependence.tiles_per_consumer}")
        print(f"  generated policies               : {', '.join(generated.policy_names)}")
        print(f"  producer tile order              : {generated.producer_order.name}")
        print()

    print("Generated CUDA header for the Attention dependence:")
    print(emit_generated_header(generator.generate(attention_program())))

    print("Auto-tuning the generated policies for GPT-3's MLP at BxS=512 ...")
    workload = GptMlp(batch_seq=BS)
    graph = workload.to_graph()
    space = SearchSpace(
        name=graph.name,
        builder=lambda _configs: graph,  # policies only: one tile choice
        policies=("TileSync", "RowSync"),
        arches=(workload.arch,),
    )
    tuner = Tuner(session=Session(arch=workload.arch))
    report = tuner.tune(space)
    print(report.summary())

    arch = workload.arch.name
    best, baseline = report.best_for(arch), report.baseline_for(arch)
    streamk = tuner.session.sweep_point(
        graph, SweepPoint(scheme="streamk", policy=None, arch=workload.arch)
    )
    print(f"  Stream-K for comparison: {streamk.total_time_us:.2f}us")
    print(
        f"best policy {best.policy} improves on StreamSync by "
        f"{(baseline - best.time_us) / baseline * 100:.1f}%"
    )


if __name__ == "__main__":
    main()
