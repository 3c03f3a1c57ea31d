"""End-to-end tests for the serving simulator (:mod:`repro.serving`).

The two acceptance properties of the serving subsystem:

* **Bit-determinism** — two fresh simulators running the same scenario
  produce ``==`` :class:`~repro.serving.LatencyReport` objects, records
  included.
* **The paper's thesis at request level** — on the seeded reference
  scenario, cuSync's end-to-end p99 is no worse than StreamSync's, and
  repeated batch shapes replay from the session sweep cache
  (``sweep_cache_hits > 0``) and, when a store is attached, from disk
  across sessions.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ServingError
from repro.models import ServingGraphCache, ServingLayer
from repro.models.config import TransformerConfig
from repro.models.serving import bucketed
from repro.pipeline import Session
from repro.service import SweepResultStore
from repro.serving import (
    PoissonArrivals,
    ServingScenario,
    ServingSimulator,
    compare_schemes,
)
from repro.testing import ServingFaultPlan

TINY = TransformerConfig(name="srv-tiny", hidden=256, layers=2, tensor_parallel=8)


@pytest.fixture()
def scenario():
    return ServingScenario(
        arrivals=PoissonArrivals(
            rate_rps=400.0, prompt_tokens=(16, 96), decode_tokens=(2, 8), seed=7
        ),
        requests=10,
        config=TINY,
        max_batch=4,
        max_kv_tokens=2048,
        max_prefill_tokens=256,
        slo_us=5_000.0,
    )


class TestServingLayerGraphs:
    def test_graph_validates_and_has_seven_stages(self):
        graph = ServingLayer(config=TINY, rows=24, keys=64).to_graph()
        assert len(graph.kernels) == 7

    def test_graph_is_fingerprintable(self):
        graph = ServingLayer(config=TINY, rows=24, keys=64).to_graph()
        assert graph.structural_fingerprint() is not None

    def test_same_shape_same_fingerprint(self):
        a = ServingLayer(config=TINY, rows=24, keys=64).to_graph()
        b = ServingLayer(config=TINY, rows=24, keys=64).to_graph()
        assert a.structural_fingerprint() == b.structural_fingerprint()

    def test_different_shape_different_fingerprint(self):
        a = ServingLayer(config=TINY, rows=24, keys=64).to_graph()
        b = ServingLayer(config=TINY, rows=32, keys=64).to_graph()
        assert a.structural_fingerprint() != b.structural_fingerprint()

    def test_runs_under_all_schemes(self):
        graph = ServingLayer(config=TINY, rows=16, keys=64).to_graph()
        session = Session()
        from repro.gpu.arch import TESLA_V100
        from repro.pipeline import SweepPoint

        for scheme, policy in (
            ("streamsync", None),
            ("streamk", None),
            ("cusync", "TileSync"),
        ):
            result = session.sweep_point(
                graph, SweepPoint(scheme=scheme, policy=policy, arch=TESLA_V100)
            )
            assert result.total_time_us > 0.0


class TestGraphCacheBucketing:
    def test_bucketed_rounds_up(self):
        assert bucketed(1, 8) == 8
        assert bucketed(8, 8) == 8
        assert bucketed(9, 8) == 16

    @pytest.mark.parametrize(
        "value, bucket, message",
        [(0, 8, "value must be positive, got 0"), (5, -8, "bucket must be positive, got -8"),
         (-1, 0, "bucket must be positive, got 0"), (float("nan"), 8, "value must be positive, got nan")],
    )
    def test_bucketed_rejects_non_positive_arguments(self, value, bucket, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            bucketed(value, bucket)

    @pytest.mark.parametrize("rows, keys, bad", [(0, 5, 0), (-3, 5, -3), (5, 0, 0), (2, -1, -1)])
    def test_bucket_of_rejects_non_positive_shapes(self, rows, keys, bad):
        cache = ServingGraphCache(config=TINY, row_bucket=8, kv_bucket=64)
        with pytest.raises(ValueError, match=rf"^value must be positive, got {bad}$"):
            cache.bucket_of(rows, keys)

    def test_shapes_collapse_onto_buckets(self):
        cache = ServingGraphCache(config=TINY, row_bucket=8, kv_bucket=64)
        g1 = cache.graph_for(3, 50)
        g2 = cache.graph_for(7, 64)  # same (8, 64) bucket
        g3 = cache.graph_for(9, 64)  # new (16, 64) bucket
        assert g1 is g2
        assert g3 is not g1
        assert cache.distinct_shapes == 2
        assert cache.builds == 2
        assert cache.reuses == 1


class TestDeterminism:
    def test_two_fresh_runs_identical_reports(self, scenario):
        first = ServingSimulator(scheme="cusync", session=Session()).run(scenario)
        second = ServingSimulator(scheme="cusync", session=Session()).run(scenario)
        assert first == second  # records included: bit-determinism

    def test_warm_session_changes_counters_not_latencies(self, scenario):
        simulator = ServingSimulator(scheme="cusync", session=Session())
        cold = simulator.run(scenario)
        warm = simulator.run(scenario)
        assert warm.records == cold.records
        assert warm.sweep_cache_misses == 0  # everything replays
        assert warm.sweep_cache_hits == warm.iterations


class TestAcceptance:
    def test_cusync_p99_no_worse_than_streamsync(self, scenario):
        reports = compare_schemes(scenario, schemes=("streamsync", "cusync"))
        assert reports["cusync"].p99_total_us <= reports["streamsync"].p99_total_us
        assert reports["cusync"].p50_total_us <= reports["streamsync"].p50_total_us

    def test_repeated_shapes_hit_sweep_cache(self, scenario):
        report = ServingSimulator(scheme="cusync", session=Session()).run(scenario)
        assert report.sweep_cache_hits > 0
        assert report.iterations == report.sweep_cache_hits + report.sweep_cache_misses
        assert report.distinct_shapes == report.sweep_cache_misses

    def test_all_requests_complete_with_full_decomposition(self, scenario):
        report = ServingSimulator(scheme="cusync", session=Session()).run(scenario)
        assert report.completed == scenario.requests
        for record in report.records:
            assert record.queue_us >= 0.0
            assert record.prefill_us > 0.0
            assert record.decode_us >= 0.0
            assert record.total_us == pytest.approx(
                record.queue_us + record.prefill_us + record.decode_us
            )
            assert record.ttft_us == pytest.approx(
                record.queue_us + record.prefill_us
            )

    def test_store_tier_replays_across_sessions(self, scenario, tmp_path):
        first = ServingSimulator(
            scheme="cusync", session=Session(result_store=SweepResultStore(tmp_path))
        ).run(scenario)
        assert first.store_hits == 0  # cold store
        second = ServingSimulator(
            scheme="cusync", session=Session(result_store=SweepResultStore(tmp_path))
        ).run(scenario)
        # Each shape's first lookup reads the store; every later iteration
        # of it is a cache hit, and nothing re-simulates.
        assert second.store_hits == second.distinct_shapes
        assert second.sweep_cache_misses == 0
        assert second.sweep_cache_hits == second.iterations - second.distinct_shapes
        assert second.records == first.records


class TestIterationMemo:
    """A run charges a shape from its memo only after the session has
    replayed that shape from its cache, so a session with the cache off
    must produce the same report with no cache counts at all."""

    # 0.2 puts stragglers on some of the iterations that fill the memo;
    # 1.0 stretches every iteration, so a memo holding a stretched time
    # always shows.
    @pytest.mark.parametrize("straggler", [0.2, 1.0])
    def test_memo_preserves_faulted_report(self, scenario, straggler):
        scenario = replace(scenario, requests=24)
        faults = ServingFaultPlan.seeded(
            24, seed=3, straggler=straggler, drop_completion=0.1, burst=0.1
        )
        cached = ServingSimulator(scheme="cusync", session=Session()).run(
            scenario, faults=faults
        )
        uncached = ServingSimulator(
            scheme="cusync", session=Session(sweep_cache=False)
        ).run(scenario, faults=faults)
        assert cached.records == uncached.records
        assert cached.shed_records == uncached.shed_records
        assert cached.simulated_us == uncached.simulated_us
        assert cached.iterations > cached.distinct_shapes  # shapes repeat
        assert cached.sweep_cache_hits + cached.sweep_cache_misses == cached.iterations
        assert cached.sweep_cache_misses == cached.distinct_shapes
        assert uncached.sweep_cache_hits == uncached.sweep_cache_misses == 0


class TestScenarioAndSimulatorSurface:
    def test_non_cusync_scheme_drops_policy(self):
        simulator = ServingSimulator(scheme="streamsync", policy="TileSync")
        assert simulator.policy is None

    def test_scheme_reports_carry_labels(self, scenario):
        report = ServingSimulator(scheme="cusync", session=Session()).run(scenario)
        assert report.scheme == "cusync"
        assert report.policy == "TileSync"
        assert report.arch  # resolved arch name

    def test_invalid_scenarios_rejected(self):
        arrivals = PoissonArrivals(rate_rps=100.0, seed=0)
        with pytest.raises(ServingError):
            ServingScenario(arrivals=arrivals, requests=0)
        with pytest.raises(ServingError):
            ServingScenario(arrivals=arrivals, requests=1, iteration_overhead_us=-1.0)
        with pytest.raises(ServingError):
            ServingScenario(arrivals=arrivals, requests=1, slo_us=0.0)
        # NaN passes plain comparisons; a NaN overhead would make the
        # clock NaN and the loop would never admit another arrival.
        nan = float("nan")
        for field in ("iteration_overhead_us", "slo_us", "max_sim_time_us"):
            with pytest.raises(ServingError):
                ServingScenario(arrivals=arrivals, requests=1, **{field: nan})
        with pytest.raises(ServingError):
            ServingScenario(
                arrivals=arrivals, requests=1, iteration_overhead_us=float("inf")
            )
        assert ServingScenario(arrivals=arrivals, requests=1).slo_us == float("inf")

    def test_iteration_overhead_slows_everything(self, scenario):
        base = ServingSimulator(scheme="cusync", session=Session()).run(scenario)
        padded = ServingSimulator(scheme="cusync", session=Session()).run(
            replace(scenario, iteration_overhead_us=50.0)
        )
        assert padded.p50_total_us > base.p50_total_us
