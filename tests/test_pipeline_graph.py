"""Tests for the declarative PipelineGraph: validation and policy resolution."""

import pytest

from repro.common.dim3 import Dim3
from repro.errors import GraphValidationError, ModelConfigError
from repro.kernels.gemm import GemmConfig, GemmKernel, GemmProblem
from repro.cusync.policies import RowSync, StridedSync, TileSync
from repro.cusync.tile_orders import GroupedColumnsOrder, RowMajorOrder
from repro.pipeline import Edge, PipelineGraph, StageSpec, linear_graph
from repro.pipeline.executors import resolve_order, resolve_policy


def _gemm(name, m=128, n=128, k=128, a="A", b="B", c="C"):
    problem = GemmProblem(m=m, n=n, k=k, a=a, b=b, c=c)
    return GemmKernel(name, problem, config=GemmConfig(tile_m=64, tile_n=64, tile_k=32))


def _pair():
    producer = _gemm("producer", c="MID")
    consumer = _gemm("consumer", a="MID", c="OUT")
    return producer, consumer


class TestGraphValidation:
    def test_valid_two_stage_graph(self):
        producer, consumer = _pair()
        graph = PipelineGraph(
            stages=[StageSpec("producer", producer), StageSpec("consumer", consumer)],
            edges=[Edge("producer", "consumer", tensor="MID")],
        )
        assert graph.stage_names == ("producer", "consumer")
        assert [stage.name for stage in graph.topological_order] == ["producer", "consumer"]
        assert graph.in_edges("consumer")[0].tensor == "MID"
        assert graph.out_edges("producer")[0].consumer == "consumer"

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphValidationError, match="at least one stage"):
            PipelineGraph(stages=[])

    def test_duplicate_stage_name_rejected(self):
        producer, consumer = _pair()
        with pytest.raises(GraphValidationError, match="duplicate stage name"):
            PipelineGraph(stages=[StageSpec("same", producer), StageSpec("same", consumer)])

    def test_shared_kernel_object_rejected(self):
        kernel = _gemm("shared")
        with pytest.raises(GraphValidationError, match="share one kernel"):
            PipelineGraph(stages=[StageSpec("a", kernel), StageSpec("b", kernel)])

    def test_dangling_edge_rejected(self):
        producer, consumer = _pair()
        with pytest.raises(GraphValidationError, match="dangling edge"):
            PipelineGraph(
                stages=[StageSpec("producer", producer), StageSpec("consumer", consumer)],
                edges=[Edge("producer", "ghost", tensor="MID")],
            )

    def test_self_edge_rejected(self):
        producer, _ = _pair()
        with pytest.raises(GraphValidationError, match="depend on itself"):
            PipelineGraph(
                stages=[StageSpec("producer", producer)],
                edges=[Edge("producer", "producer", tensor="MID")],
            )

    def test_unknown_tensor_rejected(self):
        producer, consumer = _pair()
        with pytest.raises(GraphValidationError, match="writes 'MID'"):
            PipelineGraph(
                stages=[StageSpec("producer", producer), StageSpec("consumer", consumer)],
                edges=[Edge("producer", "consumer", tensor="NOT_A_TENSOR")],
            )

    def test_range_mapped_alias_tensor_allowed(self):
        producer, consumer = _pair()
        graph = PipelineGraph(
            stages=[StageSpec("producer", producer), StageSpec("consumer", consumer)],
            edges=[
                Edge(
                    "producer",
                    "consumer",
                    tensor="MID_SLICE",
                    range_map=lambda rows, cols, batch: (rows, cols, batch),
                )
            ],
        )
        assert graph.in_edges("consumer")[0].tensor == "MID_SLICE"

    def test_duplicate_consumer_tensor_rejected(self):
        producer, consumer = _pair()
        other = _gemm("other", c="MID")
        with pytest.raises(GraphValidationError, match="two dependencies"):
            PipelineGraph(
                stages=[
                    StageSpec("producer", producer),
                    StageSpec("other", other),
                    StageSpec("consumer", consumer),
                ],
                edges=[
                    Edge("producer", "consumer", tensor="MID"),
                    Edge("other", "consumer", tensor="MID"),
                ],
            )

    def test_cycle_rejected(self):
        first = _gemm("first", a="C2", c="C1")
        second = _gemm("second", a="C1", c="C2")
        with pytest.raises(GraphValidationError, match="cycle"):
            PipelineGraph(
                stages=[StageSpec("first", first), StageSpec("second", second)],
                edges=[
                    Edge("first", "second", tensor="C1"),
                    Edge("second", "first", tensor="C2"),
                ],
            )

    def test_topological_order_reorders_declarations(self):
        producer, consumer = _pair()
        graph = PipelineGraph(
            stages=[StageSpec("consumer", consumer), StageSpec("producer", producer)],
            edges=[Edge("producer", "consumer", tensor="MID")],
        )
        assert graph.stage_names == ("producer", "consumer")
        assert graph.stages[0].name == "consumer"  # declaration order preserved

    def test_unknown_stage_lookup(self):
        producer, _ = _pair()
        graph = PipelineGraph(stages=[StageSpec("producer", producer)])
        with pytest.raises(GraphValidationError, match="no stage named"):
            graph.stage("missing")

    def test_linear_graph_builder(self):
        a = _gemm("a", c="T1")
        b = _gemm("b", a="T1", c="T2")
        c = _gemm("c", a="T2", c="T3")
        graph = linear_graph([a, b, c], tensors=["T1", "T2"])
        assert graph.stage_names == ("a", "b", "c")
        assert len(graph.edges) == 2
        with pytest.raises(GraphValidationError, match="one tensor per edge"):
            linear_graph([a, b], tensors=[])


class TestPolicyResolution:
    def test_family_names(self):
        stage = StageSpec("s", _gemm("s"))
        assert isinstance(resolve_policy("TileSync", stage), TileSync)
        assert isinstance(resolve_policy("rowsync", stage), RowSync)

    def test_unknown_family_raises(self):
        stage = StageSpec("s", _gemm("s"))
        with pytest.raises(ModelConfigError, match="unknown synchronization policy"):
            resolve_policy("MagicSync", stage)

    def test_strided_resolves_when_groups_divide_grid(self):
        # n=384 with tile_n=64 -> grid.x = 6, divisible into 3 groups.
        kernel = _gemm("qkv", n=384)
        stage = StageSpec("qkv", kernel, strided_groups=3)
        policy = resolve_policy("StridedTileSync", stage)
        assert isinstance(policy, StridedSync)
        assert policy.stride == 2
        assert isinstance(resolve_order("StridedTileSync", stage), GroupedColumnsOrder)

    def test_strided_falls_back_to_tilesync_on_indivisible_grid(self):
        # n=320 with tile_n=64 -> grid.x = 5, not divisible by 3 groups.
        kernel = _gemm("qkv", n=320)
        stage = StageSpec("qkv", kernel, strided_groups=3)
        assert kernel.stage_geometry().logical_grid.x % 3 != 0
        policy = resolve_policy("StridedTileSync", stage)
        assert isinstance(policy, TileSync)
        assert not isinstance(policy, StridedSync)
        assert isinstance(resolve_order("StridedTileSync", stage), RowMajorOrder)

    def test_strided_falls_back_without_groups(self):
        stage = StageSpec("s", _gemm("s", n=384))
        assert isinstance(resolve_policy("StridedTileSync", stage), TileSync)

    def test_legacy_make_policy_make_order_shims(self):
        """What the removed ``make_policy``/``make_order`` shims returned,
        from their replacements ``resolve_policy``/``resolve_order``."""
        stage = StageSpec("k", _gemm("k", n=384), strided_groups=3)
        assert isinstance(resolve_policy("StridedTileSync", stage), StridedSync)
        assert isinstance(resolve_order("StridedTileSync", stage), GroupedColumnsOrder)
        assert isinstance(resolve_order("TileSync", stage), RowMajorOrder)


class TestAutoFlagsPerEdge:
    def test_mixed_sizes_give_per_stage_flags(self, small_arch):
        """A small edge keeps W/T; an edge with a large endpoint loses them."""
        from repro.gpu.costmodel import CostModel
        from repro.pipeline.executors import auto_flags

        cost_model = CostModel(arch=small_arch)
        # 2x2 grid of 64x64 tiles: tiny producer; 32x32 consumer grid: many
        # blocks -> multiple waves on the 8-SM test GPU.
        small = _gemm("small", m=128, n=128, c="MID")
        big = GemmKernel(
            "big",
            GemmProblem(m=2048, n=2048, k=128, a="MID", c="OUT"),
            config=GemmConfig(tile_m=64, tile_n=64, tile_k=32),
        )
        small.cost_model = cost_model
        big.cost_model = cost_model
        graph = PipelineGraph(
            stages=[StageSpec("small", small), StageSpec("big", big)],
            edges=[Edge("small", "big", tensor="MID")],
        )
        flags = auto_flags(graph, small_arch)
        # The edge is not small (the consumer spans many waves), so neither
        # endpoint may skip the custom tile order and the consumer keeps
        # its wait-kernel.
        assert not flags["big"].avoid_wait_kernel
        assert not flags["big"].avoid_custom_tile_order
        assert not flags["small"].avoid_custom_tile_order
        # The producer has no incoming edges: the wait-kernel question is
        # moot and defaults to elided.
        assert flags["small"].avoid_wait_kernel
        assert flags["small"].reorder_loads and flags["big"].reorder_loads

    def test_chain_flags_differ_per_stage(self, small_arch):
        """In a chain small-big-small, only edges touching `big` lose W/T."""
        from repro.gpu.costmodel import CostModel
        from repro.pipeline.executors import auto_flags

        cost_model = CostModel(arch=small_arch)
        first = _gemm("first", m=128, n=128, c="T1")
        middle = GemmKernel(
            "middle",
            GemmProblem(m=2048, n=2048, k=128, a="T1", c="T2"),
            config=GemmConfig(tile_m=64, tile_n=64, tile_k=32),
        )
        last = GemmKernel(
            "last",
            GemmProblem(m=128, n=128, k=2048, a="T2", c="T3"),
            config=GemmConfig(tile_m=64, tile_n=64, tile_k=32),
        )
        for kernel in (first, middle, last):
            kernel.cost_model = cost_model
        graph = PipelineGraph(
            stages=[StageSpec("first", first), StageSpec("middle", middle), StageSpec("last", last)],
            edges=[Edge("first", "middle", tensor="T1"), Edge("middle", "last", tensor="T2")],
        )
        flags = auto_flags(graph, small_arch)
        assert not flags["middle"].avoid_wait_kernel  # edge first->middle is large
        assert not flags["last"].avoid_wait_kernel    # edge middle->last is large
        assert not flags["first"].avoid_custom_tile_order
        # The old aggregate computation would have given every stage the
        # same flags; per-edge flags distinguish the endpoints.
        assert flags["first"].avoid_wait_kernel
