"""Per-launch block-program tables and the race payload.

Kernels resolve their geometry, operand plans and posts once per launch
binding, and only functional runs carry the ``reads``/``writes`` the race
detector checks.  Neither may show in a trace:

* a timing run and a functional run of the same graph and point produce
  identical traces, so dropping the payload changed no timing;
* a graph run under every scheme, policy, architecture and mode in an
  interleaved order traces each point exactly as a freshly built graph
  does, so no table outlives the binding it was built for;
* a GeMM or Conv2D timing binding's program table holds, for every tile,
  the program the functional per-block build makes for it.

Occupancy is the exception that outlives ``sync`` and ``functional``
rebinding: only a cost model (its arch) can move it.  Everything else a
run binds dies with the run: afterwards each kernel is bound to
``NoSync`` and holds no program table.
"""

import random

import numpy as np
import pytest

from golden_trace_utils import _serialize_result
from repro.gpu.arch import AMPERE_A100, TESLA_V100
from repro.gpu.occupancy import OccupancyCalculator
from repro.gpu.simulator import GpuSimulator
from repro.kernels.base import NoSync
from repro.kernels.epilogue import SwiGLUMultiply
from repro.kernels.gemm import GemmConfig, GemmKernel, GemmProblem
from repro.models import RESNET38_LAYERS, Attention, ConvChain, GptMlp, LlamaMlp, TransformerConfig
from repro.pipeline import linear_graph, run

TINY = TransformerConfig(name="tiny", hidden=256, layers=2, tensor_parallel=8)
TINY_SWIGLU = TransformerConfig(name="tiny-swiglu", hidden=192, layers=2, tensor_parallel=8, swiglu=True)
RESNET_C64 = {spec.channels: spec for spec in RESNET38_LAYERS}[64]


class GatedGemms:
    """``Y = Swish(X @ W2) * G`` with ``G = X @ W1``: the second GeMM reads
    ``G`` only in its epilogue, through ``gate_input``."""

    arch = TESLA_V100

    def to_graph(self):
        config = GemmConfig(32, 32, 32, 2)
        gate = GemmKernel("gate_gemm", GemmProblem(96, 64, 128, a="X", b="W1", c="G"), config=config)
        gated = GemmKernel(
            "gated_gemm",
            GemmProblem(96, 64, 128, a="X", b="W2", c="Y"),
            config=config,
            epilogue=SwiGLUMultiply("G"),
            sync_inputs=("G",),
            gate_input="G",
        )
        return linear_graph([gate, gated], ["G"])

    def input_tensors(self):
        rng = np.random.default_rng(0)
        shapes = {"X": (96, 128), "W1": (128, 64), "W2": (128, 64)}
        return {name: rng.standard_normal(shape).astype(np.float32) for name, shape in shapes.items()}


def _workload(name: str):
    if name == "mlp_split_k":
        return GptMlp(config=TINY, batch_seq=64, gemm_configs=(GemmConfig(64, 64, 32, 2),) * 2)
    if name == "llama":
        return LlamaMlp(config=TINY_SWIGLU, batch_seq=64, gemm_configs=(GemmConfig(32, 32, 32, 2),) * 2)
    if name == "gated":
        return GatedGemms()
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
        ("llama", "streamsync"),
        ("llama", "cusync:TileSync"),
        ("llama", "cusync:RowSync"),
        ("llama", "cusync:StridedTileSync"),
        ("gated", "streamsync"),
        ("gated", "cusync:TileSync"),
        ("gated", "cusync:RowSync"),
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
        ("mlp_split_k", ["streamsync", "streamk", "cusync:TileSync", "cusync:RowSync"]),
    ],
    ids=["attention_s128", "conv", "mlp_split_k"],
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


def _record_gemm_programs(monkeypatch) -> list:
    """Every GeMM/Conv2D block program built from now on, with its kernel,
    tile, functional flag, snapshot at build time and the block's posts."""
    built = []
    original = GemmKernel.build_block_program

    def recorded(self, tile):
        program = original(self, tile)
        posts = list(self.sync.posts_for(tile, self.grid))
        built.append((self.name, tile, self.functional, program, _snapshot(program), posts))
        return program

    monkeypatch.setattr(GemmKernel, "build_block_program", recorded)
    return built


def _groups(programs, key) -> dict:
    groups = {}
    for tile, program in programs:
        groups.setdefault(key(tile), set()).add(id(program))
    return groups


def test_blocks_that_post_nothing_share_one_unmutated_program(monkeypatch):
    """In one binding, the consumer blocks of a tile row run one program.
    Under TileSync every producer block has a program of its own that ends
    in its tile's posts, and the splits of a split-K tile share one posts
    list; under RowSync a producer tile row shares one program.  The run
    leaves every program as it was built."""
    built = _record_gemm_programs(monkeypatch)
    graph = GptMlp(batch_seq=512).to_graph()
    producer, consumer = graph.kernels
    split_k = producer.config.split_k
    assert split_k > 1

    for policy in ("TileSync", "RowSync"):
        built.clear()
        run(graph, scheme="cusync", policy=policy)
        assert built
        for _, _, _, program, snapshot, posts in built:
            assert _snapshot(program) == snapshot
            assert list(program.segments[-1].posts) == posts
        consumers = [(tile, program) for name, tile, _, program, _, _ in built if name == consumer.name]
        producers = [(tile, program) for name, tile, _, program, _, _ in built if name == producer.name]
        assert all(not program.segments[-1].posts for _, program in consumers)
        assert all(program.segments[-1].posts for _, program in producers)

        rows = _groups(consumers, lambda tile: (tile.y, tile.z))
        assert len(rows) > 1 and all(len(ids) == 1 for ids in rows.values())
        assert len(set.union(*rows.values())) == len(rows)

        if policy == "TileSync":
            assert len({id(program) for _, program in producers}) == len(producers)
            splits = {}
            for tile, program in producers:
                splits.setdefault((tile.x, tile.y, tile.z // split_k), set()).add(id(program.segments[-1].posts))
            assert len(splits) == len(producers) // split_k
            assert all(len(ids) == 1 for ids in splits.values())
        else:
            producer_rows = _groups(producers, lambda tile: (tile.y, tile.z))
            assert len(producer_rows) > 1 and all(len(ids) == 1 for ids in producer_rows.values())
            assert len(set.union(*producer_rows.values())) == len(producer_rows)


def _segment_rows(program) -> list:
    return [
        (s.label, tuple(s.waits), s.duration_us, s.overlappable_us, tuple(s.posts))
        for s in program.segments
    ]


@pytest.mark.parametrize(
    "scheme", ["streamsync", "cusync:TileSync", "cusync:RowSync", "cusync:StridedTileSync", "cusync:Conv2DTileSync"]
)
@pytest.mark.parametrize("name", ["mlp_split_k", "llama", "gated", "attention", "conv"])
def test_timing_programs_equal_the_functional_per_block_build(monkeypatch, name, scheme):
    """Each tile's program from the timing table equals, segment by segment,
    the one the functional binding builds for that tile on its own."""
    built = _record_gemm_programs(monkeypatch)
    workload = _workload(name)
    graph = workload.to_graph()
    _trace(graph, workload, scheme, functional=False)
    _trace(graph, workload, scheme, functional=True)
    programs = {False: {}, True: {}}
    for kernel, tile, functional, program, _, _ in built:
        programs[functional][(kernel, tile)] = _segment_rows(program)
    assert programs[False] == programs[True]
    grids = {kernel.name: kernel.grid.volume for kernel in graph.kernels if isinstance(kernel, GemmKernel)}
    assert len(programs[False]) == sum(grids.values())


@pytest.mark.parametrize("scheme", ["streamsync", "cusync"])
@pytest.mark.parametrize("raises", [False, True])
def test_a_runs_binding_dies_with_the_run(monkeypatch, scheme, raises):
    """Once the simulator returns or raises, every kernel is bound to
    ``NoSync`` and holds no program table."""
    if raises:
        original = GpuSimulator.run

        def failing(self, launches):
            original(self, launches)
            raise RuntimeError("injected")

        monkeypatch.setattr(GpuSimulator, "run", failing)
    graph = _workload("attention").to_graph()
    if raises:
        with pytest.raises(RuntimeError, match="injected"):
            run(graph, scheme=scheme, policy="TileSync")
    else:
        run(graph, scheme=scheme, policy="TileSync")
    for kernel in graph.kernels:
        assert isinstance(kernel.sync, NoSync)
        assert getattr(kernel, "_programs", None) is None
