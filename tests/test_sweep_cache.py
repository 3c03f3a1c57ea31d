"""Tests for the session-level sweep-result cache.

The simulator is deterministic and sweep points are timing-only, so a
point's :class:`~repro.pipeline.SweepResult` is a pure function of its
trace key ``(graph, resolved arch, scheme, resolved policy assignment)``.
:class:`~repro.pipeline.Session` caches results under that key; these
tests pin the contract:

* replays are bit-identical to fresh simulations (equality ignores the
  diagnostic ``cached`` flag — every value field matches);
* duplicate points inside one work list simulate once;
* equivalent policy spellings share an entry, different graphs never do;
* ``sweep_cache=False`` (and the per-call ``cache=False``) opt out.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cusync.policies import PolicyAssignment, PolicySpec
from repro.errors import GraphValidationError
from repro.models.config import TransformerConfig
from repro.models.mlp import GptMlp
from repro.pipeline import Session, SweepPoint, run, sweep_archs
from repro.serving import ServingSimulator

TINY = TransformerConfig(name="tiny-cache", hidden=256, layers=2, tensor_parallel=8)


@pytest.fixture()
def workload():
    return GptMlp(config=TINY, batch_seq=96)


@pytest.fixture()
def graph(workload):
    return workload.to_graph()


class TestReplayIdentity:
    def test_second_sweep_replays_bit_identically(self, graph):
        session = Session()
        work = sweep_archs(graph, ("V100", "A100"), policies=("TileSync", "RowSync"))
        cold = session.sweep(work, mode="serial")
        assert session.sweep_cache_hits == 0
        assert session.sweep_cache_misses == len(work)
        assert all(not result.cached for result in cold)

        warm = session.sweep(work, mode="serial")
        assert session.sweep_cache_hits == len(work)
        assert all(result.cached for result in warm)
        # Equality ignores the cached flag; check the value fields exactly.
        assert warm == cold
        for fresh, replayed in zip(cold, warm):
            assert replayed.total_time_us == fresh.total_time_us
            assert replayed.total_wait_time_us == fresh.total_wait_time_us
            assert replayed.kernel_durations_us == fresh.kernel_durations_us
            assert replayed.arch_name == fresh.arch_name

    def test_duplicates_within_one_work_list_simulate_once(self, graph, workload):
        session = Session(arch=workload.arch)
        point = SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)
        results = session.sweep([(graph, point)] * 4, mode="serial")
        assert session.sweep_cache_misses == 1
        assert session.sweep_cache_hits == 3
        assert [result.cached for result in results] == [False, True, True, True]
        assert results[0] == results[1] == results[2] == results[3]

    def test_equivalent_policy_spellings_share_an_entry(self, graph, workload):
        session = Session(arch=workload.arch)
        spellings = [
            "TileSync",
            PolicySpec("TileSync"),
            PolicyAssignment(default="TileSync"),
        ]
        results = session.sweep(
            [
                (graph, SweepPoint(scheme="cusync", policy=policy, arch=workload.arch))
                for policy in spellings
            ],
            mode="serial",
        )
        assert session.sweep_cache_misses == 1
        assert session.sweep_cache_hits == 2
        # The replay carries the *requested* spelling, not the cached one's.
        assert [result.policy for result in results] == spellings
        assert results[0].total_time_us == results[1].total_time_us == results[2].total_time_us

    def test_cached_flag_excluded_from_equality(self, graph, workload):
        session = Session(arch=workload.arch)
        point = SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)
        first = session.sweep([(graph, point)], mode="serial")[0]
        second = session.sweep([(graph, point)], mode="serial")[0]
        assert second.cached and not first.cached
        assert second == first
        assert replace(second, cached=False) == first


class TestCacheKeying:
    def test_rebuilt_equal_graphs_share_entries(self, workload):
        """Structurally equal graphs share one entry: the cache keys on the
        graph's structural fingerprint, so a rebuilt (distinct-object)
        graph replays the first build's result bit-identically."""
        session = Session(arch=workload.arch)
        graph_a = workload.to_graph()
        graph_b = workload.to_graph()
        assert graph_a.structural_fingerprint() == graph_b.structural_fingerprint()
        point = SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)
        first = session.sweep([(graph_a, point)], mode="serial")[0]
        second = session.sweep([(graph_b, point)], mode="serial")[0]
        assert session.sweep_cache_misses == 1
        assert session.sweep_cache_hits == 1
        assert second.cached and not first.cached
        assert second == first

    def test_structurally_different_graphs_never_share_entries(self, workload):
        """A different problem shape is a different fingerprint — no replay."""
        other_workload = GptMlp(
            config=TransformerConfig(
                name="tiny-cache-b", hidden=512, layers=2, tensor_parallel=8
            ),
            batch_seq=96,
        )
        session = Session(arch=workload.arch)
        graph_a = workload.to_graph()
        graph_b = other_workload.to_graph()
        assert graph_a.structural_fingerprint() != graph_b.structural_fingerprint()
        point = SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)
        session.sweep([(graph_a, point)], mode="serial")
        session.sweep([(graph_b, point)], mode="serial")
        assert session.sweep_cache_hits == 0
        assert session.sweep_cache_misses == 2

    def test_scheme_and_arch_are_part_of_the_key(self, graph, workload):
        session = Session(arch=workload.arch)
        work = [
            (graph, SweepPoint(scheme="cusync", policy="TileSync", arch="V100")),
            (graph, SweepPoint(scheme="streamsync", policy=None, arch="V100")),
            (graph, SweepPoint(scheme="cusync", policy="TileSync", arch="A100")),
        ]
        session.sweep(work, mode="serial")
        assert session.sweep_cache_misses == 3
        assert session.sweep_cache_hits == 0

    def test_arch_name_and_spec_share_an_entry(self, graph, workload):
        from repro.gpu.arch import ArchSpec

        session = Session(arch=workload.arch)
        work = [
            (graph, SweepPoint(scheme="cusync", policy="TileSync", arch="V100")),
            (graph, SweepPoint(scheme="cusync", policy="TileSync", arch=ArchSpec.coerce("V100"))),
        ]
        results = session.sweep(work, mode="serial")
        assert session.sweep_cache_misses == 1
        assert session.sweep_cache_hits == 1
        assert results[0] == results[1]

    def test_equal_what_if_instances_share_an_entry(self, graph):
        from repro.gpu.arch import TESLA_V100

        session = Session()
        for _ in range(3):
            arch = TESLA_V100.with_overrides(name="what-if", num_sms=40)
            session.sweep_point(graph, SweepPoint(scheme="cusync", policy="TileSync", arch=arch))
        assert (session.sweep_cache_misses, session.sweep_cache_hits) == (1, 2)

    def test_scheme_spelling_keeps_the_policy_axis(self):
        # A capitalised scheme runs under cuSync, so it must key like one:
        # one entry per policy, in memory and in the store.
        graph = GptMlp(config=TINY, batch_seq=512).to_graph()
        policies = ("TileSync", "RowSync", "BatchSync")
        points = [SweepPoint("CuSync", policy, "V100") for policy in policies]
        assert {point.scheme for point in points} == {"cusync"}
        session = Session()
        results = session.sweep([(graph, point) for point in points], mode="serial")
        assert [result.cached for result in results] == [False, False, False]
        for policy, result in zip(policies, results):
            fresh = run(graph, scheme="cusync", policy=policy, arch="V100")
            assert result.total_time_us == fresh.total_time_us, policy
        store_keys = {session.sweep_store_key(graph, point) for point in points}
        assert len(store_keys) == len(policies)
        assert session.sweep_store_key(graph, points[0]) == session.sweep_store_key(
            graph, SweepPoint("cusync", "TileSync", "V100")
        )

    def test_grid_and_serving_points_keep_the_policy_axis_of_any_spelling(self):
        work = sweep_archs(GptMlp(config=TINY, batch_seq=96).to_graph(), ("V100",),
                           policies=("TileSync", "RowSync"), schemes=("StreamSync", "CuSync"))
        assert [(point.scheme, point.policy) for _, point in work] == [
            ("streamsync", None), ("cusync", "TileSync"), ("cusync", "RowSync")
        ]
        simulator = ServingSimulator(scheme="CuSync", policy="RowSync")
        assert (simulator.scheme, simulator.policy) == ("cusync", "RowSync")

    def test_unknown_scheme_rejected_when_the_point_is_built(self):
        with pytest.raises(GraphValidationError, match="available: cusync, streamk, streamsync"):
            SweepPoint("bogus", None, "V100")


class TestOptOut:
    def test_session_opt_out_disables_reuse(self, graph, workload):
        session = Session(arch=workload.arch, sweep_cache=False)
        point = SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)
        first = session.sweep([(graph, point)] * 2, mode="serial")
        second = session.sweep([(graph, point)], mode="serial")
        assert session.sweep_cache_hits == 0
        assert session.sweep_cache_misses == 0
        assert session.sweep_cache_size == 0
        assert not any(result.cached for result in first + second)
        # Determinism still makes the values identical — just re-simulated.
        assert first[0] == first[1] == second[0]

    def test_per_call_opt_out_and_opt_in(self, graph, workload):
        session = Session(arch=workload.arch)
        point = SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)
        session.sweep([(graph, point)], mode="serial", cache=False)
        assert session.sweep_cache_size == 0
        session.sweep([(graph, point)], mode="serial")
        assert session.sweep_cache_size == 1

        disabled = Session(arch=workload.arch, sweep_cache=False)
        disabled.sweep([(graph, point)], mode="serial", cache=True)
        assert disabled.sweep_cache_size == 1

    def test_fingerprinted_entries_survive_graph_death(self, workload):
        """Structurally keyed entries outlive their graph object: an equal
        graph rebuilt later replays them, so transient rebuilds of one
        workload cost exactly one simulation."""
        import gc

        session = Session(arch=workload.arch)
        point = SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)
        for _ in range(3):
            transient = workload.to_graph()
            session.sweep([(transient, point)], mode="serial")
            del transient
            gc.collect()
        assert session.sweep_cache_size == 1
        assert session.sweep_cache_misses == 1
        assert session.sweep_cache_hits == 2

    def test_dead_unfingerprintable_graph_entries_are_evicted(self, workload):
        """Graphs without a structural fingerprint (closure range maps) key
        by per-process token; their entries can never be hit again once
        the graph dies and must not accumulate in long-lived sessions."""
        import gc

        from repro.pipeline import Edge, PipelineGraph

        def closure_graph():
            base = workload.to_graph()
            shift = 0  # captured: the range map below is a true closure
            edges = [
                Edge(
                    edge.producer,
                    edge.consumer,
                    edge.tensor,
                    range_map=lambda rows, cols, batch: (rows, cols, batch + shift),
                )
                for edge in base.edges
            ]
            graph = PipelineGraph(stages=base.stages, edges=edges)
            assert graph.structural_fingerprint() is None
            return graph

        session = Session(arch=workload.arch)
        point = SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)
        for _ in range(3):
            transient = closure_graph()
            session.sweep([(transient, point)], mode="serial")
            del transient
            gc.collect()
        assert session.sweep_cache_size == 0
        assert session.sweep_cache_misses == 3
        # A token-keyed graph that stays alive keeps its entry.
        kept = closure_graph()
        session.sweep([(kept, point)], mode="serial")
        gc.collect()
        assert session.sweep_cache_size == 1

    def test_clear_sweep_cache(self, graph, workload):
        session = Session(arch=workload.arch)
        point = SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)
        session.sweep([(graph, point)], mode="serial")
        assert session.sweep_cache_size == 1
        session.clear_sweep_cache()
        assert session.sweep_cache_size == 0
        session.sweep([(graph, point)], mode="serial")
        assert session.sweep_cache_misses == 2


class TestModesAndRegistry:
    def test_process_mode_dedups_and_replays(self, graph, workload):
        session = Session(arch=workload.arch)
        work = sweep_archs(graph, ("V100", "A100"), policies=("TileSync",))
        cold = session.sweep(work, mode="process")
        warm = session.sweep(work, mode="process")
        assert warm == cold
        assert all(result.cached for result in warm)

    def test_registry_change_flushes_the_cache(self, graph, workload):
        from repro.gpu.arch import TESLA_V100, register_arch, unregister_arch

        session = Session(arch=workload.arch)
        point = SweepPoint(scheme="cusync", policy="TileSync", arch="V100")
        session.sweep([(graph, point)], mode="serial")
        assert session.sweep_cache_size == 1
        register_arch("cache-flush-probe", TESLA_V100)
        try:
            session.sweep([(graph, point)], mode="serial")
            # The registry generation changed, so the first sweep's entry
            # was flushed and the point re-simulated.
            assert session.sweep_cache_misses == 2
        finally:
            unregister_arch("cache-flush-probe")

    def test_policy_registry_change_flushes_the_cache(self, graph, workload):
        """A re-registered family changes what a cached policy key *means*:
        the stale result must not be replayed."""
        from repro.cusync.policies import (
            RowSync,
            TileSync,
            register_policy,
            unregister_policy,
        )

        session = Session(arch=workload.arch)
        point = SweepPoint(scheme="cusync", policy="FlushProbeSync", arch="V100")
        register_policy("FlushProbeSync", lambda params, ctx: TileSync())
        try:
            session.sweep([(graph, point)], mode="serial")
            assert session.sweep_cache_size == 1
            unregister_policy("FlushProbeSync")
            register_policy("FlushProbeSync", lambda params, ctx: RowSync())
            row_like = session.sweep([(graph, point)], mode="serial")[0]
            # The registry mutation flushed the cache: the point was
            # re-simulated (a stale replay would report cached=True and
            # keep the TileSync-resolved result).
            assert session.sweep_cache_misses == 2
            assert not row_like.cached
            # The family now resolves to RowSync; the fresh simulation must
            # agree with an explicit RowSync point.
            reference = session.sweep(
                [(graph, SweepPoint(scheme="cusync", policy="RowSync", arch="V100"))],
                mode="serial",
            )[0]
            assert row_like.total_time_us == reference.total_time_us
            assert row_like.kernel_durations_us == reference.kernel_durations_us
        finally:
            unregister_policy("FlushProbeSync")
