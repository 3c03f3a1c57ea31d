"""The first-class policy space: specs, registry, per-edge assignments.

Covers the acceptance criteria of the policy-API redesign:

* ``PolicySpec`` is hashable, picklable and registry-resolvable;
* ``register_policy`` extends the family space without touching executors;
* a single ``PipelineGraph`` runs with *different* policies on different
  edges in one execution (per-edge ``PolicyAssignment`` / ``Edge.policy``),
  and uniform spec/assignment selections stay bit-identical to the legacy
  family strings.
"""

import pickle

import pytest

from repro.common.dim3 import Dim3
from repro.cusync.custage import CuStage
from repro.cusync.semaphores import stage_semaphore_array
from repro.errors import GraphValidationError, ModelConfigError
from repro.cusync.policies import (
    BatchSync,
    PolicyAssignment,
    PolicyContext,
    PolicySpec,
    RowSync,
    StridedSync,
    SyncPolicy,
    TileSync,
    register_policy,
    registered_policies,
    resolve_policy,
    unregister_policy,
)
from repro.gpu.arch import ArchSpec, TESLA_V100
from repro.kernels.gemm import GemmConfig, GemmKernel, GemmProblem
from repro.models.config import TransformerConfig
from repro.models.mlp import GptMlp
from repro.pipeline import Edge, PipelineGraph, StageSpec, run

TINY = TransformerConfig(name="tiny", hidden=256, layers=2, tensor_parallel=8)


class TestPolicySpec:
    def test_equality_and_hash(self):
        assert PolicySpec("RowSync") == PolicySpec("rowsync")  # family case-insensitive
        assert hash(PolicySpec("RowSync")) == hash(PolicySpec("rowsync"))
        assert PolicySpec("StridedSync", stride=4) == PolicySpec("StridedSync", stride=4)
        assert PolicySpec("StridedSync", stride=4) != PolicySpec("StridedSync", stride=8)
        assert PolicySpec("TileSync") != PolicySpec("RowSync")
        assert ArchSpec("RowSync") != PolicySpec("RowSync")  # specs of other kinds differ

    def test_usable_as_dict_key(self):
        table = {PolicySpec("StridedSync", stride=4): "a"}
        assert table[PolicySpec("StridedSync", stride=4)] == "a"

    def test_pickle_roundtrip(self):
        spec = PolicySpec("StridedSync", stride=4)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_immutable(self):
        spec = PolicySpec("TileSync")
        with pytest.raises(AttributeError):
            spec.name = "RowSync"

    def test_label(self):
        assert PolicySpec("RowSync").label() == "RowSync"
        assert PolicySpec("StridedSync", stride=4).label() == "StridedSync(stride=4)"

    def test_rejects_empty_family(self):
        with pytest.raises(ModelConfigError):
            PolicySpec("")

    def test_coerce(self):
        assert PolicySpec.coerce("RowSync") == PolicySpec("RowSync")
        spec = PolicySpec("TileSync")
        assert PolicySpec.coerce(spec) is spec
        with pytest.raises(ModelConfigError):
            PolicySpec.coerce(TileSync())


class TestRegistry:
    def test_builtin_families_registered(self):
        families = registered_policies()
        for family in ("TileSync", "RowSync", "Conv2DTileSync", "BatchSync",
                       "StridedSync", "StridedTileSync"):
            assert family in families

    def test_resolve_builtins(self):
        assert isinstance(resolve_policy("TileSync"), TileSync)
        assert isinstance(resolve_policy("row"), RowSync)
        assert isinstance(resolve_policy(PolicySpec("BatchSync")), BatchSync)
        instance = RowSync()
        assert resolve_policy(instance) is instance  # instances pass through

    def test_unknown_family(self):
        with pytest.raises(ModelConfigError, match="unknown synchronization policy family"):
            resolve_policy("NoSuchSync")

    def test_builtin_rejects_parameters(self):
        with pytest.raises(ModelConfigError, match="takes no parameters"):
            resolve_policy(PolicySpec("TileSync", stride=2))

    def test_stridedsync_stride_and_groups(self):
        ctx = PolicyContext(logical_grid=Dim3(6, 2, 1))
        assert resolve_policy(PolicySpec("StridedSync", stride=2)).stride == 2
        assert resolve_policy(PolicySpec("StridedSync", groups=3), ctx).stride == 2
        with pytest.raises(ModelConfigError, match="stride=... or groups=..."):
            resolve_policy(PolicySpec("StridedSync"))

    def test_strided_tilesync_adapts_to_context(self):
        divisible = PolicyContext(logical_grid=Dim3(6, 2, 1), strided_groups=3)
        resolved = resolve_policy("StridedTileSync", divisible)
        assert isinstance(resolved, StridedSync) and resolved.stride == 2
        # No groups, or an indivisible grid: falls back to TileSync.
        assert isinstance(resolve_policy("StridedTileSync", PolicyContext()), TileSync)
        indivisible = PolicyContext(logical_grid=Dim3(7, 2, 1), strided_groups=3)
        assert isinstance(resolve_policy("StridedTileSync", indivisible), TileSync)

    def test_register_resolve_unregister_custom_family(self):
        class EverySync(SyncPolicy):
            """One semaphore for the whole grid."""

            name = "EverySync"

            def num_semaphores(self, grid):
                return 1

            def semaphore_index(self, tile, grid):
                return 0

            def expected_value(self, tile, grid):
                return grid.volume

        register_policy("EverySync", lambda params, ctx: EverySync(), aliases=("every",))
        try:
            assert "EverySync" in registered_policies()
            assert isinstance(resolve_policy("every"), EverySync)
            # Re-registering a taken name must be explicit.
            with pytest.raises(ModelConfigError, match="already registered"):
                register_policy("EverySync", lambda params, ctx: EverySync())
            register_policy(
                "EverySync", lambda params, ctx: EverySync(), overwrite=True
            )
        finally:
            unregister_policy("EverySync")
        assert "EverySync" not in registered_policies()
        with pytest.raises(ModelConfigError):
            resolve_policy("every")  # aliases die with the entry

    def test_conflicting_alias_leaves_no_partial_registration(self):
        """A rejected registration must be all-or-nothing: if an alias is
        already taken, the canonical name must not be left registered."""
        with pytest.raises(ModelConfigError, match="already registered"):
            register_policy("FreshSync", lambda params, ctx: TileSync(), aliases=("tile",))
        assert "FreshSync" not in registered_policies()
        register_policy("FreshSync", lambda params, ctx: TileSync())  # retry works
        unregister_policy("FreshSync")

    def test_overwrite_replaces_and_cleans_aliases(self):
        register_policy("StaleSync", lambda params, ctx: TileSync(), aliases=("stale",))
        try:
            register_policy("StaleSync", lambda params, ctx: RowSync(), overwrite=True)
            assert isinstance(resolve_policy("StaleSync"), RowSync)
            # The whole previous registration is replaced: the old alias
            # does not keep resolving to the stale factory.
            with pytest.raises(ModelConfigError, match="unknown synchronization policy family"):
                resolve_policy("stale")
            register_policy(
                "StaleSync", lambda params, ctx: RowSync(), aliases=("stale",), overwrite=True
            )
            assert isinstance(resolve_policy("stale"), RowSync)
        finally:
            unregister_policy("StaleSync")
        with pytest.raises(ModelConfigError):
            resolve_policy("stale")

    def test_overwrite_cannot_hijack_other_registrations(self):
        with pytest.raises(ModelConfigError, match="already registered"):
            register_policy(
                "HijackSync", lambda params, ctx: TileSync(), aliases=("row",), overwrite=True
            )
        assert "HijackSync" not in registered_policies()
        assert isinstance(resolve_policy("row"), RowSync)

    def test_overwrite_cannot_steal_a_canonical_name(self):
        with pytest.raises(ModelConfigError, match="already registered"):
            register_policy(
                "MineSync", lambda params, ctx: RowSync(), aliases=("TileSync",), overwrite=True
            )
        assert "MineSync" not in registered_policies()
        assert isinstance(resolve_policy("TileSync"), TileSync)

    @pytest.mark.parametrize("name,aliases", [("", ()), ("EmptyAliasSync", ("",)), (None, ())])
    def test_empty_names_rejected(self, name, aliases):
        before = registered_policies()
        with pytest.raises(ModelConfigError, match="non-empty"):
            register_policy(name, lambda params, ctx: TileSync(), aliases=aliases)
        assert registered_policies() == before

    def test_custom_family_runs_end_to_end(self):
        class WholeGridSync(SyncPolicy):
            name = "WholeGridSync"

            def num_semaphores(self, grid):
                return 1

            def semaphore_index(self, tile, grid):
                return 0

            def expected_value(self, tile, grid):
                return grid.volume

        register_policy("WholeGridSync", lambda params, ctx: WholeGridSync())
        try:
            graph = GptMlp(config=TINY, batch_seq=96).to_graph()
            result = run(graph, scheme="cusync", policy="WholeGridSync")
            assert result.total_time_us > 0.0
        finally:
            unregister_policy("WholeGridSync")


class TestPolicyAssignment:
    def test_precedence_exact_edge_over_pair_over_stage_over_default(self):
        assignment = PolicyAssignment(
            default="TileSync",
            stages={"p": "RowSync"},
            edges={("p", "c"): "BatchSync", ("p", "c", "T"): "StridedTileSync"},
        )
        assert assignment.spec_for_stage("p") == PolicySpec("RowSync")
        assert assignment.spec_for_stage("other") == PolicySpec("TileSync")
        assert assignment.spec_for_edge("p", "c", "T") == PolicySpec("StridedTileSync")
        assert assignment.spec_for_edge("p", "c", "U") == PolicySpec("BatchSync")
        assert assignment.spec_for_edge("p", "x", "T") is None  # inherit stage

    def test_builders_hash_and_pickle(self):
        base = PolicyAssignment(default="TileSync")
        extended = base.with_edge(("a", "b", "T"), "RowSync").with_stage("a", "RowSync")
        assert base != extended
        rebuilt = PolicyAssignment(
            default="TileSync", stages={"a": "RowSync"}, edges={("a", "b", "T"): "RowSync"}
        )
        assert extended == rebuilt
        assert hash(extended) == hash(rebuilt)
        assert pickle.loads(pickle.dumps(extended)) == extended

    def test_coerce(self):
        uniform = PolicyAssignment.coerce("RowSync")
        assert uniform.default == PolicySpec("RowSync") and not uniform.edges
        assignment = PolicyAssignment(default="TileSync")
        assert PolicyAssignment.coerce(assignment) is assignment

    def test_label_mentions_overrides(self):
        assignment = PolicyAssignment(
            default="TileSync", edges={("a", "b", "T"): "RowSync"}
        )
        assert "TileSync" in assignment.label()
        assert "a->b:T=RowSync" in assignment.label()


def _two_gemm_graph(edge_policy=None):
    """Producer feeding one consumer through tensor XW1 (quickstart shape)."""
    problem1 = GemmProblem(m=256, n=512, k=1024, a="X", b="W1", c="XW1")
    problem2 = GemmProblem(m=256, n=1024, k=512, a="XW1", b="W2", c="XW12")
    config = GemmConfig(tile_m=64, tile_n=64, tile_k=32)
    producer = GemmKernel("gemm1", problem1, config)
    consumer = GemmKernel("gemm2", problem2, config, sync_inputs=("XW1",))
    return PipelineGraph(
        stages=[StageSpec("gemm1", producer), StageSpec("gemm2", consumer)],
        edges=[Edge("gemm1", "gemm2", tensor="XW1", policy=edge_policy)],
    )


class TestPerEdgePolicies:
    def test_uniform_spec_and_assignment_match_legacy_string(self):
        graph = _two_gemm_graph()
        legacy = run(graph, scheme="cusync", policy="RowSync").total_time_us
        spec = run(graph, scheme="cusync", policy=PolicySpec("RowSync")).total_time_us
        assignment = run(
            graph, scheme="cusync", policy=PolicyAssignment(default="RowSync")
        ).total_time_us
        assert legacy == spec == assignment

    def test_one_graph_mixes_policies_across_edges(self):
        """The acceptance criterion: a single graph, one execution,
        different policies on different edges of the same producer."""
        problem1 = GemmProblem(m=256, n=512, k=1024, a="X", b="W1", c="XW1")
        problem2 = GemmProblem(m=256, n=512, k=512, a="XW1", b="W2", c="OUT1")
        problem3 = GemmProblem(m=256, n=512, k=512, a="XW1", b="W3", c="OUT2")
        config = GemmConfig(tile_m=64, tile_n=64, tile_k=32)
        producer = GemmKernel("fanout", problem1, config)
        left = GemmKernel("left", problem2, config, sync_inputs=("XW1",))
        right = GemmKernel("right", problem3, config, sync_inputs=("XW1",))
        graph = PipelineGraph(
            stages=[StageSpec("fanout", producer), StageSpec("left", left), StageSpec("right", right)],
            edges=[
                Edge("fanout", "left", tensor="XW1"),
                Edge("fanout", "right", tensor="XW1"),
            ],
        )
        assignment = PolicyAssignment(
            default="TileSync", edges={("fanout", "right", "XW1"): "RowSync"}
        )
        mixed = run(graph, scheme="cusync", policy=assignment)
        uniform = run(graph, scheme="cusync", policy="TileSync")
        assert mixed.total_time_us > 0.0
        assert mixed.total_time_us != uniform.total_time_us  # policies really differ

        # The mixed run gave the producer a second semaphore slot.
        assert stage_semaphore_array("fanout", 1) in mixed.memory.snapshot_semaphores()
        assert stage_semaphore_array("fanout", 1) not in uniform.memory.snapshot_semaphores()

        # Inspect the binding the executor builds: the left edge waits on
        # the producer's default (TileSync) array, the right edge on a
        # dedicated RowSync slot, and the producer posts both.
        p = CuStage("fanout", producer.stage_geometry(), policy=TileSync())
        l = CuStage("left", left.stage_geometry(), policy=TileSync())
        r = CuStage("right", right.stage_geometry(), policy=TileSync())
        l.depends_on(p, "XW1")
        r.depends_on(p, "XW1", policy=RowSync())
        arrays = dict(p.semaphore_slots())
        assert len(arrays) == 2
        posts = p.posts_for(Dim3(0, 0, 0), producer.grid)
        assert [post.array for post in posts] == list(arrays)
        left_waits = {w.array for step in l.plan_reads("XW1", (0, 64), (0, 512)) for w in step.waits}
        right_waits = {w.array for step in r.plan_reads("XW1", (0, 64), (0, 512)) for w in step.waits}
        assert left_waits == {p.semaphore_array}
        assert right_waits and right_waits != left_waits

    def test_edge_policy_field_overrides_run_family(self):
        pinned = _two_gemm_graph(edge_policy="RowSync")
        free = _two_gemm_graph()
        # The pinned edge synchronizes under RowSync no matter the run family.
        pinned_under_tile = run(pinned, scheme="cusync", policy="TileSync").total_time_us
        free_under_tile = run(free, scheme="cusync", policy="TileSync").total_time_us
        assert pinned_under_tile != free_under_tile

    def test_edge_override_equal_to_stage_default_is_free(self):
        """An override that matches the producer's policy collapses to slot 0
        (no extra semaphore arrays, no extra posts) and stays bit-identical."""
        pinned = _two_gemm_graph(edge_policy="TileSync")
        free = _two_gemm_graph()
        assert (
            run(pinned, scheme="cusync", policy="TileSync").total_time_us
            == run(free, scheme="cusync", policy="TileSync").total_time_us
        )

    def test_assignment_naming_unknown_edge_or_stage_rejected(self):
        graph = _two_gemm_graph()
        with pytest.raises(GraphValidationError, match="no such edge"):
            run(graph, scheme="cusync",
                policy=PolicyAssignment(edges={("gemm1", "gemm2", "BOGUS"): "RowSync"}))
        with pytest.raises(GraphValidationError, match="no edge between"):
            run(graph, scheme="cusync",
                policy=PolicyAssignment(edges={("gemm2", "gemm1"): "RowSync"}))
        with pytest.raises(GraphValidationError, match="no such stage"):
            run(graph, scheme="cusync",
                policy=PolicyAssignment(stages={"nope": "RowSync"}))

    def test_legacy_golden_paths_still_accept_strings(self):
        graph = GptMlp(config=TINY, batch_seq=96).to_graph()
        for family in ("TileSync", "RowSync"):
            result = run(graph, scheme="cusync", policy=family, arch=TESLA_V100)
            assert result.total_time_us > 0.0
