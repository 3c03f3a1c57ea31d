"""Acceptance tests for the execution layer: one graph, many runs.

The core guarantee of the PipelineGraph API: a graph built once is run
under all three schemes and multiple policy families without rebuilding
kernels (object identity is preserved across runs), and every run is
bit-identical to a run on a freshly built graph.
"""

import pytest

from repro.errors import GraphValidationError, ModelConfigError
from repro.gpu.arch import AMPERE_A100, TESLA_V100
from repro.gpu.costmodel import CostModel
from repro.models import Attention, GptMlp, LlamaMlp, TransformerConfig
from repro.pipeline import Session, run

TINY = TransformerConfig(name="tiny", hidden=256, layers=2, tensor_parallel=8)
TINY_LLAMA = TransformerConfig(
    name="tiny-llama", hidden=384, layers=2, tensor_parallel=8, swiglu=True
)


@pytest.fixture
def workload():
    return GptMlp(config=TINY, batch_seq=96)


class TestGraphReuseAcrossSchemes:
    def test_one_graph_all_schemes_without_kernel_rebuilds(self, workload):
        """The acceptance criterion: identity-stable kernels, bit-identical times."""
        graph = workload.to_graph()
        kernel_ids = [id(kernel) for kernel in graph.kernels]

        # Run the *same* graph under all three schemes and two policy
        # families (and one scheme twice, to prove reruns are clean).
        points = [
            ("streamsync", None),
            ("cusync", "TileSync"),
            ("cusync", "RowSync"),
            ("streamk", None),
            ("cusync", "TileSync"),
        ]
        times = {}
        for scheme, policy in points:
            result = run(
                graph,
                scheme=scheme,
                policy=policy if policy is not None else "TileSync",
                arch=workload.arch,
                cost_model=workload.cost_model,
            )
            times[(scheme, policy)] = result.total_time_us

        # Kernel objects were never rebuilt or replaced.
        assert [id(kernel) for kernel in graph.kernels] == kernel_ids

        # Rerunning a point on the reused graph is deterministic.
        rerun = run(
            graph, scheme="cusync", policy="TileSync",
            arch=workload.arch, cost_model=workload.cost_model,
        )
        assert rerun.total_time_us == times[("cusync", "TileSync")]

        # Bit-identical to runs that rebuild the workload's kernels each time.
        fresh = GptMlp(config=TINY, batch_seq=96)
        for (scheme, policy), time_us in times.items():
            rebuilt = run(
                fresh.to_graph(),
                scheme=scheme,
                policy=policy if policy is not None else "TileSync",
                arch=fresh.arch,
                cost_model=fresh.cost_model,
            )
            assert rebuilt.total_time_us == time_us

    def test_results_independent_of_run_order(self, workload):
        graph_a = workload.to_graph()
        graph_b = GptMlp(config=TINY, batch_seq=96).to_graph()

        a_stream = run(graph_a, scheme="streamsync").total_time_us
        a_cusync = run(graph_a, scheme="cusync", policy="RowSync").total_time_us

        b_cusync = run(graph_b, scheme="cusync", policy="RowSync").total_time_us
        b_stream = run(graph_b, scheme="streamsync").total_time_us

        assert a_stream == b_stream
        assert a_cusync == b_cusync

    def test_rerun_on_different_arch_is_deterministic(self, workload, small_arch):
        """Auto flags must derive occupancy from the run's arch, so the
        first run on a new architecture matches every rerun bit for bit."""
        graph = workload.to_graph()
        run(graph, scheme="cusync", policy="TileSync", arch=workload.arch)
        first = run(graph, scheme="cusync", policy="TileSync", arch=small_arch).total_time_us
        second = run(graph, scheme="cusync", policy="TileSync", arch=small_arch).total_time_us
        assert first == second

    def test_session_memoizes_and_matches_one_shot_run(self, workload):
        session = Session(arch=workload.arch)
        graph = workload.to_graph()
        first = session.run(graph, scheme="cusync", policy="TileSync").total_time_us
        second = session.run(graph, scheme="cusync", policy="TileSync").total_time_us
        assert first == second
        one_shot = run(graph, scheme="cusync", policy="TileSync", arch=workload.arch)
        assert one_shot.total_time_us == first

    def test_unknown_scheme_rejected(self, workload):
        with pytest.raises(GraphValidationError, match="available: cusync, streamk, streamsync"):
            run(workload.to_graph(), scheme="bogus")

    def test_cost_model_must_price_the_run_arch(self, workload):
        v100 = CostModel(arch=TESLA_V100)
        both = "'Tesla V100'.*'A100'"
        with pytest.raises(ModelConfigError, match=both):
            Session(arch="A100", cost_model=v100)
        for scheme in ("streamsync", "streamk", "cusync"):
            with pytest.raises(ModelConfigError, match=both):
                run(workload.to_graph(), scheme=scheme, arch="A100", cost_model=v100)
        # A calibrated session runs every other arch on its default model.
        graph = workload.to_graph()
        assert Session(cost_model=v100).run(graph, arch="A100").total_time_us == (
            run(graph, arch=AMPERE_A100).total_time_us
        )


class TestSweep:
    def test_sweep_matches_serial_loop(self, workload):
        graph = workload.to_graph()
        policies = ("TileSync", "RowSync")
        schemes = ("streamsync", "cusync")

        parallel = Session(arch=workload.arch).sweep(
            graph, policies=policies, schemes=schemes, workers=2, mode="process"
        )
        serial = Session(arch=workload.arch).sweep(
            graph, policies=policies, schemes=schemes, mode="serial"
        )
        assert parallel == serial
        assert len(serial) == 3  # streamsync + one point per policy
        assert {r.policy for r in serial} == {None, "TileSync", "RowSync"}
        for record in serial:
            assert record.total_time_us > 0.0
            assert record.arch_name == workload.arch.name

    def test_sweep_over_arches(self, workload, small_arch):
        graph = workload.to_graph()
        arches = (workload.arch, small_arch)
        results = Session(arch=workload.arch).sweep(
            graph, policies=("TileSync",), arches=arches, mode="serial"
        )
        assert [r.arch_name for r in results] == [workload.arch.name, small_arch.name]
        # Different architectures give different simulated times (the 8-SM
        # test GPU has different wave structure and zero launch latency).
        assert results[0].total_time_us != results[1].total_time_us

    def test_explicit_process_mode_rejects_closure_graphs(self):
        """LLaMA's SwiGLU range map is a closure; the error names its edge."""
        from repro.errors import SimulationError

        workload = LlamaMlp(config=TINY_LLAMA, batch_seq=64)
        graph = workload.to_graph()
        with pytest.raises(SimulationError, match="needs picklable graphs") as info:
            Session(arch=workload.arch).sweep(
                graph, policies=("TileSync", "RowSync"), mode="process"
            )
        assert "'llama_gemm1' -> 'llama_gemm2'" in str(info.value)

    def test_sweep_point_labels(self, workload):
        from repro.pipeline.session import SweepPoint

        point = SweepPoint(scheme="cusync", policy="RowSync", arch=TESLA_V100)
        assert point.label() == f"cusync:RowSync@{TESLA_V100.name}"


class TestMultiGraphSweep:
    """The redesigned Session.sweep: (graph, SweepPoint) work lists, policy
    grids and both execution modes, all bit-identical."""

    def _work(self, workload):
        from repro.pipeline import PolicyAssignment, SweepPoint, sweep_policies

        mlp_graph = workload.to_graph()
        attention = Attention(config=TINY, batch=1, seq=64)
        attention_graph = attention.to_graph()
        mixed = PolicyAssignment(
            default="TileSync",
            edges={("attn_qkv", "attn_scores"): "StridedTileSync",
                   ("attn_softmax", "attn_values", "R"): "RowSync"},
        )
        work = sweep_policies(mlp_graph, ("TileSync", "RowSync"),
                              arches=(workload.arch,), mixed=True)
        work += sweep_policies(attention_graph, ("TileSync", "StridedTileSync"),
                               arches=(attention.arch,))
        work.append(
            (attention_graph, SweepPoint(scheme="cusync", policy=mixed, arch=attention.arch))
        )
        work.append(
            (mlp_graph, SweepPoint(scheme="streamsync", policy=None, arch=workload.arch))
        )
        return work

    def test_process_serial_modes_bit_identical(self, workload):
        """Mode parity, via the reusable differential harness (which also
        runs the picklable subset of the work through the process pool)."""
        from differential_harness import assert_modes_identical

        work = self._work(workload)
        serial = assert_modes_identical(work, session_arch=workload.arch)
        default = Session(arch=workload.arch).sweep(list(work))  # fresh session: no shared caches
        assert default == serial
        assert len(serial) == len(work)
        assert all(result.total_time_us > 0.0 for result in serial)

    def test_results_attributed_to_graphs(self, workload):
        session = Session(arch=workload.arch)
        results = session.sweep(self._work(workload), mode="serial")
        labels = {result.graph_label for result in results}
        assert len(labels) == 2
        assert any(label.startswith("mlp") for label in labels)
        assert any(label.startswith("attn") for label in labels)

    def test_mixed_policy_points_evaluated(self, workload):
        from repro.cusync.policies import PolicyAssignment

        session = Session(arch=workload.arch)
        results = session.sweep(self._work(workload), mode="serial")
        mixed = [r for r in results if isinstance(r.policy, PolicyAssignment) and r.policy.edges]
        assert mixed and all(r.total_time_us > 0.0 for r in mixed)
        assert all("=" in r.policy_label for r in mixed)

    def test_sweep_policies_mixed_grid_is_full_product(self, workload):
        from repro.cusync.policies import PolicyAssignment, PolicySpec
        from repro.pipeline import sweep_policies

        graph = Attention(config=TINY, batch=1, seq=64).to_graph()
        work = sweep_policies(
            graph, ("TileSync", "RowSync"), arches=(workload.arch,), mixed=True
        )
        assert len(work) == 2 ** len(graph.edges)
        policies = [point.policy for _, point in work]
        uniform = [p for p in policies if isinstance(p, PolicySpec)]
        assert len(uniform) == 2  # the product's diagonal stays uniform
        assert len(set(policies)) == len(policies)  # hashable and distinct

    def test_multi_graph_process_mode_with_picklable_graphs(self, workload):
        """Two picklable graphs cross the process pool (or the probe falls
        back serially in sandboxes) with results identical to serial."""
        graph_a = workload.to_graph()
        graph_b = GptMlp(config=TINY, batch_seq=128).to_graph()
        from repro.pipeline.session import SweepPoint

        work = [
            (graph_a, SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)),
            (graph_b, SweepPoint(scheme="cusync", policy="RowSync", arch=workload.arch)),
            (graph_b, SweepPoint(scheme="streamsync", policy=None, arch=workload.arch)),
        ]
        session = Session(arch=workload.arch)
        assert session.sweep(list(work), mode="process") == session.sweep(list(work), mode="serial")

    def test_invalid_mode_and_work_items_rejected(self, workload):
        from repro.errors import SimulationError

        session = Session(arch=workload.arch)
        for mode in ("fleet", "thread", None):
            with pytest.raises(SimulationError, match="unknown sweep mode"):
                session.sweep(workload.to_graph(), mode=mode)
        with pytest.raises(SimulationError, match="work items"):
            session.sweep([("not a graph", "not a point")], mode="serial")
