"""Per-launch block-program tables and the race payload.

Kernels resolve their geometry, operand plans and posts once per launch
binding, and only functional runs carry the ``reads``/``writes`` the race
detector checks.  Neither may show in a trace:

* a timing run and a functional run of the same graph and point produce
  identical traces, so dropping the payload changed no timing;
* a graph run under every scheme, policy, architecture and mode in an
  interleaved order traces each point exactly as a freshly built graph
  does, so no table outlives the binding it was built for.

Occupancy is the exception that outlives ``sync`` and ``functional``
rebinding: only a cost model (its arch) can move it.
"""

import random

import pytest

from golden_trace_utils import _serialize_result
from repro.gpu.arch import AMPERE_A100, TESLA_V100
from repro.gpu.occupancy import OccupancyCalculator
from repro.kernels.gemm import GemmConfig, GemmKernel
from repro.models import RESNET38_LAYERS, Attention, ConvChain, GptMlp, TransformerConfig
from repro.pipeline import run

TINY = TransformerConfig(name="tiny", hidden=256, layers=2, tensor_parallel=8)
RESNET_C64 = {spec.channels: spec for spec in RESNET38_LAYERS}[64]


def _workload(name: str):
    if name == "mlp_split_k":
        return GptMlp(config=TINY, batch_seq=64, gemm_configs=(GemmConfig(64, 64, 32, 2),) * 2)
    if name == "attention":
        return Attention(config=TINY, batch=1, seq=64)
    if name == "attention_s128":
        return Attention(config=TINY, batch=1, seq=128)
    return ConvChain(RESNET_C64, batch=1)


def _trace(graph, workload, scheme: str, functional: bool, arch=None):
    """Serialized trace of one run (``scheme`` is ``"<backend>[:<policy>]"``)."""
    backend, _, policy = scheme.partition(":")
    result = run(
        graph,
        scheme=backend,
        policy=policy or "TileSync",
        arch=arch if arch is not None else workload.arch,
        functional=functional,
        tensors=workload.input_tensors() if functional else None,
    )
    return _serialize_result(result)


@pytest.mark.parametrize(
    "name,scheme",
    [
        ("mlp_split_k", "streamsync"),
        ("mlp_split_k", "cusync:TileSync"),
        ("mlp_split_k", "cusync:RowSync"),
        ("attention", "streamsync"),
        ("attention", "cusync:TileSync"),
        ("attention", "cusync:RowSync"),
        ("attention", "cusync:StridedTileSync"),
        ("conv", "streamsync"),
        ("conv", "cusync:Conv2DTileSync"),
        ("conv", "cusync:RowSync"),
    ],
)
def test_timing_and_functional_runs_trace_identically(name, scheme):
    workload = _workload(name)
    graph = workload.to_graph()
    timing = _trace(graph, workload, scheme, functional=False)
    functional = _trace(graph, workload, scheme, functional=True)
    assert functional == timing


@pytest.mark.parametrize(
    "name,schemes",
    [
        (
            "attention_s128",
            ["streamsync", "streamk", "cusync:TileSync", "cusync:RowSync", "cusync:StridedTileSync"],
        ),
        ("conv", ["streamsync", "cusync:Conv2DTileSync", "cusync:RowSync"]),
    ],
    ids=["attention_s128", "conv"],
)
def test_tables_follow_every_rebinding(name, schemes):
    workload = _workload(name)
    points = [
        (scheme, arch, functional)
        for scheme in schemes
        for arch in (TESLA_V100, AMPERE_A100)
        for functional in (False, True)
        # Stream-K models timing only.
        if not (functional and scheme == "streamk")
    ]
    random.Random(0).shuffle(points)
    graph = workload.to_graph()
    for scheme, arch, functional in points:
        reused = _trace(graph, workload, scheme, functional, arch)
        fresh = _trace(workload.to_graph(), workload, scheme, functional, arch)
        assert reused == fresh, (scheme, arch.name, functional)


@pytest.mark.parametrize("scheme", ["streamsync", "cusync"])
def test_a_run_computes_each_kernels_occupancy_once(monkeypatch, scheme):
    """The run binds a cost model, then sync and functional: one occupancy
    computation per kernel, however many rebindings follow."""
    calls = []
    original = OccupancyCalculator.blocks_per_sm

    def counted(self, resources):
        calls.append(resources)
        return original(self, resources)

    monkeypatch.setattr(OccupancyCalculator, "blocks_per_sm", counted)
    graph = GptMlp(batch_seq=512).to_graph()
    calls.clear()
    run(graph, scheme=scheme, policy="TileSync")
    assert len(calls) == 2
    # A new cost model is the one rebinding that recomputes it.
    run(graph, scheme=scheme, policy="TileSync", arch=AMPERE_A100)
    assert len(calls) == 4


def _snapshot(program) -> tuple:
    return (
        program.tile,
        id(program.segments),
        tuple(
            (s.label, tuple(s.waits), s.duration_us, s.overlappable_us, tuple(s.posts), tuple(s.writes))
            for s in program.segments
        ),
    )


def test_blocks_that_post_nothing_share_one_unmutated_program(monkeypatch):
    """In one binding, the consumer blocks of a tile row run one program,
    which the run leaves as built; every producer block has a program of
    its own that ends in its tile's posts."""
    built = []
    original = GemmKernel.build_block_program

    def recorded(self, tile):
        program = original(self, tile)
        built.append((self.name, tile, program, _snapshot(program), list(self.sync.posts_for(tile, self.grid))))
        return program

    monkeypatch.setattr(GemmKernel, "build_block_program", recorded)
    graph = GptMlp(batch_seq=512).to_graph()
    run(graph, scheme="cusync", policy="TileSync")
    producer, consumer = (kernel.name for kernel in graph.kernels)

    rows = {}
    for name, tile, program, snapshot, posts in built:
        assert _snapshot(program) == snapshot
        if name == consumer:
            assert posts == []
            rows.setdefault((tile.y, tile.z), set()).add(id(program))
    assert len(rows) > 1 and all(len(ids) == 1 for ids in rows.values())
    assert len(set.union(*rows.values())) == len(rows)

    producers = [(program, posts) for name, _, program, _, posts in built if name == producer]
    assert len({id(program) for program, _ in producers}) == len(producers)
    assert all(posts and program.segments[-1].posts == posts for program, posts in producers)
