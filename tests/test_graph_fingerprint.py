"""Tests for structural graph fingerprints and value canonicalization.

The fingerprint is the identity under which sweep results persist and
replay across processes, so these tests pin what it must (and must not)
depend on.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cusync.policies import PolicyAssignment, PolicySpec
from repro.gpu.arch import ArchSpec, TESLA_V100
from repro.models.attention import Attention
from repro.models.config import TransformerConfig
from repro.models.mlp import GptMlp
from repro.pipeline import Edge, PipelineGraph, Session, SweepPoint
from repro.pipeline.structural import UnportableValueError, canonicalize, fingerprint
from repro.service import content_address

TINY = TransformerConfig(name="tiny-fp", hidden=256, layers=2, tensor_parallel=8)


@pytest.fixture()
def workload():
    return GptMlp(config=TINY, batch_seq=96)


class TestFingerprintIdentity:
    def test_rebuilt_graphs_fingerprint_equal(self, workload):
        assert (
            workload.to_graph().structural_fingerprint()
            == workload.to_graph().structural_fingerprint()
        )

    def test_fingerprint_is_memoized(self, workload):
        graph = workload.to_graph()
        assert graph.structural_fingerprint() is graph.structural_fingerprint()

    def test_different_config_changes_fingerprint(self, workload):
        wider = GptMlp(
            config=TransformerConfig(
                name="tiny-fp-b", hidden=512, layers=2, tensor_parallel=8
            ),
            batch_seq=96,
        )
        assert (
            workload.to_graph().structural_fingerprint()
            != wider.to_graph().structural_fingerprint()
        )

    def test_graph_name_is_not_structural(self, workload):
        a = workload.to_graph()
        base = workload.to_graph()
        b = PipelineGraph(stages=base.stages, edges=base.edges, name="renamed-for-display")
        assert a.structural_fingerprint() == b.structural_fingerprint()

    def test_pickle_round_trip_preserves_fingerprint(self, workload):
        graph = workload.to_graph()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.structural_fingerprint() == graph.structural_fingerprint()

    def test_closure_range_maps_have_no_fingerprint(self, workload):
        base = workload.to_graph()
        shift = 0
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
        # The failure is memoized too: asking twice stays None, no raise.
        assert graph.structural_fingerprint() is None


class TestStoreKeys:
    def test_policy_spellings_share_a_store_key(self, workload):
        session = Session(arch=workload.arch)
        graph = workload.to_graph()
        keys = {
            session.sweep_store_key(
                graph, SweepPoint(scheme="cusync", policy=policy, arch="V100")
            )
            for policy in (
                "TileSync",
                PolicySpec("TileSync"),
                PolicyAssignment(default="TileSync"),
            )
        }
        assert len(keys) == 1 and None not in keys

    def test_arch_name_and_spec_share_a_store_key(self, workload):
        session = Session(arch=workload.arch)
        graph = workload.to_graph()
        by_name = session.sweep_store_key(
            graph, SweepPoint(scheme="cusync", policy="TileSync", arch="V100")
        )
        by_spec = session.sweep_store_key(
            graph,
            SweepPoint(scheme="cusync", policy="TileSync", arch=ArchSpec.coerce("V100")),
        )
        assert by_name == by_spec is not None

    def test_unregistered_arch_instance_has_no_store_key(self, workload):
        session = Session(arch=workload.arch)
        graph = workload.to_graph()
        bare = workload.arch.with_overrides(num_sms=3)
        key = session.sweep_store_key(
            graph, SweepPoint(scheme="cusync", policy="TileSync", arch=bare)
        )
        assert key is None

    def test_store_keys_are_primitive_tuples(self, workload):
        session = Session(arch=workload.arch)
        key = session.sweep_store_key(
            workload.to_graph(),
            SweepPoint(scheme="cusync", policy="TileSync", arch="V100"),
        )

        def check(value):
            if isinstance(value, tuple):
                for item in value:
                    check(item)
            else:
                assert isinstance(value, (str, int, float, bool)) or value is None

        check(key)
        # And therefore picklable/hashable and equal across a round trip.
        assert pickle.loads(pickle.dumps(key)) == key
        hash(key)


    def test_store_keys_are_pinned(self):
        """A change to any of these content addresses re-keys persisted
        stores: none of their entries would be hit again."""
        mlp = GptMlp(batch_seq=64).to_graph()
        attention = Attention(batch=1, seq=512).to_graph()
        qkv_edge = ("attn_qkv", "attn_scores", "XQ")
        points = [
            (mlp, SweepPoint("cusync", "TileSync", "V100"),
             "3e4acdb5bac20bb39c05445c93fbcd220fc98ebf31b5e49acde18df5c1423e83"),
            (mlp, SweepPoint("cusync", PolicySpec("StridedSync", stride=4), "A100"),
             "2dfe6d9d787ca34db4266cb470f80232a3ac8a9eff61d421097fdd4b929ccd06"),
            (mlp, SweepPoint("streamsync", None, ArchSpec("A100").scaled(sms=0.5, bandwidth=2.0)),
             "9f711fcc696e0104f577f3eba31dfe1a663109c83568b3d858728533513290d2"),
            (mlp, SweepPoint("cusync", "RowSync", TESLA_V100),
             "5c24cb9f5889fba83b07ae786f8a1c956598b43761010b49700ead4b9813d4f6"),
            (attention, SweepPoint("cusync", "StridedTileSync", "h100"),
             "696122671ae8de0b6e781cefa38b2c326e91053f2b28ead1e432e11ec6da1c0c"),
            (attention, SweepPoint("cusync", PolicySpec("StridedSync", groups=3), ArchSpec("V100", num_sms=40)),
             "86a12930deee388cebb53db1cb7dcfd8a862ac45b96261da218638ade3e41d3f"),
            (attention, SweepPoint("cusync", PolicyAssignment(default="RowSync", edges={qkv_edge: "StridedTileSync"}), "RTX-4090"),
             "0d65a06cfff2154b57e5a9b40e284fca12df4c6036f0d135b8f9a910238f1e63"),
            (attention, SweepPoint("streamk", None, TESLA_V100),
             "ae5e50cb3b7f497a9fc8fcd187f3748ad6f398935ddd1fb12a8b7e8bf3a22173"),
        ]
        session = Session()
        for graph, point, address in points:
            assert content_address(session.sweep_store_key(graph, point)) == address, point.label()


class TestCanonicalize:
    def test_equal_values_canonicalize_equal(self):
        assert canonicalize({"b": 2, "a": 1}) == canonicalize({"a": 1, "b": 2})
        assert canonicalize((1, 2.5, "x")) == canonicalize([1, 2.5, "x"])

    def test_distinguishes_int_from_float(self):
        assert canonicalize(1) != canonicalize(1.0)
        assert canonicalize(True) != canonicalize(1)

    def test_rejects_lambdas(self):
        with pytest.raises(UnportableValueError):
            canonicalize(lambda x: x)

    def test_rejects_bound_methods(self):
        with pytest.raises(UnportableValueError):
            canonicalize("abc".upper)

    def test_module_level_functions_are_portable(self):
        from repro.common.tiles import linearize

        assert canonicalize(linearize) == canonicalize(linearize)

    def test_fingerprint_is_hex_digest(self):
        digest = fingerprint(canonicalize({"a": 1}))
        assert len(digest) == 32
        int(digest, 16)
