"""Tests for workload helpers, the k-plan merger and auxiliary pieces."""

import pytest

from repro.common.dim3 import Dim3
from repro.errors import ModelConfigError
from repro.gpu.kernel import SemWait
from repro.kernels.base import ReadPlanStep
from repro.kernels.gemm import _merge_k_plans
from repro.cusync.optimizations import OptimizationFlags
from repro.cusync.semaphores import SemaphoreAllocator, stage_semaphore_array
from repro.cusync.custage import CuStage
from repro.cusync.policies import RowSync, TileSync
from repro.gpu.memory import GlobalMemory
from repro.kernels.base import StageGeometry
from repro.models import GptMlp, TransformerConfig
from repro.pipeline import auto_flags, resolve_order, run
from repro.cusync.tile_orders import GroupedColumnsOrder, RowMajorOrder

TINY = TransformerConfig(name="tiny", hidden=256, layers=2, tensor_parallel=8)


class TestMergeKPlans:
    def test_single_unguarded_plan(self):
        a = [ReadPlanStep(rows=(0, 64), cols=(0, 256))]
        b = [ReadPlanStep(rows=(0, 256), cols=(0, 64))]
        chunks = _merge_k_plans(a, b, (0, 256))
        assert len(chunks) == 1
        assert chunks[0].k_range == (0, 256)

    def test_a_plan_boundaries_split_chunks(self):
        wait0 = SemWait("s", 0, 1)
        wait1 = SemWait("s", 1, 1)
        a = [
            ReadPlanStep(rows=(0, 64), cols=(0, 128), waits=(wait0,)),
            ReadPlanStep(rows=(0, 64), cols=(128, 256), waits=(wait1,)),
        ]
        b = [ReadPlanStep(rows=(0, 256), cols=(0, 64))]
        chunks = _merge_k_plans(a, b, (0, 256))
        assert [chunk.k_range for chunk in chunks] == [(0, 128), (128, 256)]
        assert chunks[0].waits == (wait0,)
        assert chunks[1].waits == (wait1,)

    def test_mixed_boundaries(self):
        wait0 = SemWait("s", 0, 1)
        a = [ReadPlanStep(rows=(0, 64), cols=(0, 192), waits=(wait0,))]
        b = [
            ReadPlanStep(rows=(0, 96), cols=(0, 64)),
            ReadPlanStep(rows=(96, 192), cols=(0, 64)),
        ]
        chunks = _merge_k_plans(a, b, (0, 192))
        assert [chunk.k_range for chunk in chunks] == [(0, 96), (96, 192)]
        assert chunks[0].waits == (wait0,)
        assert chunks[1].waits == ()

    def test_empty_plans_give_single_chunk(self):
        chunks = _merge_k_plans([], [], (32, 64))
        assert chunks[0].k_range == (32, 64)


class TestSemaphoreAllocator:
    def _stage(self, name, policy):
        geometry = StageGeometry(grid=Dim3(4, 2, 1), tile_rows=32, tile_cols=32, output="OUT")
        return CuStage(name, geometry, policy=policy)

    def test_allocates_per_stage_arrays(self):
        memory = GlobalMemory()
        producer = self._stage("producer", TileSync())
        consumer = self._stage("consumer", RowSync())
        SemaphoreAllocator(memory).allocate([producer, consumer])
        assert memory.snapshot_semaphores() == {
            "cusync_stage_start": (0,) * 2,
            stage_semaphore_array("producer"): (0,) * 8,
            stage_semaphore_array("consumer"): (0,) * 2,
        }

    def test_empty_stage_list_is_noop(self):
        memory = GlobalMemory()
        SemaphoreAllocator(memory).allocate([])
        assert memory.snapshot_semaphores() == {}


class TestWorkloadPolicyHelpers:
    def test_make_order_defaults_to_row_major(self):
        stage = GptMlp(config=TINY, batch_seq=64).to_graph().stage("mlp_gemm1")
        assert isinstance(resolve_order("TileSync", stage), RowMajorOrder)

    def test_strided_order_for_attention_producer(self):
        from repro.models import Attention

        qkv = Attention(config=TINY, batch=1, seq=64).to_graph().stage("attn_qkv")
        order = resolve_order("StridedTileSync", qkv)
        assert isinstance(order, (GroupedColumnsOrder, RowMajorOrder))

    def test_explicit_policy_list(self):
        """A per-stage list of policy instances is rejected; instances go on
        the graph through ``StageSpec.policy`` / ``Edge.policy``."""
        graph = GptMlp(config=TINY, batch_seq=96).to_graph()
        with pytest.raises(ModelConfigError, match="StageSpec.policy"):
            run(graph, scheme="cusync", policy=[TileSync(), RowSync()])

    def test_explicit_optimizations_respected(self):
        graph = GptMlp(config=TINY, batch_seq=96).to_graph()
        with_wait_kernel = run(
            graph, scheme="cusync", policy="TileSync", optimizations=OptimizationFlags.none()
        )
        assert any(name.startswith("waitkernel") for name in with_wait_kernel.wait_kernel_names)

    def test_auto_flags_for_small_workload(self):
        workload = GptMlp(config=TINY, batch_seq=96)
        flags = auto_flags(workload.to_graph(), workload.arch)
        assert set(flags) == {"mlp_gemm1", "mlp_gemm2"}
        for stage_flags in flags.values():
            assert stage_flags.avoid_wait_kernel and stage_flags.reorder_loads
