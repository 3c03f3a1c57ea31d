"""Tests for the asyncio sweep service: coalescing, tiers, streaming.

The acceptance bar pinned here: N concurrent clients submitting
overlapping grids trigger exactly one simulation per novel point,
asserted on the worker's and store's own call counters.
"""

from __future__ import annotations

import asyncio
import sys

import pytest

from repro.errors import SimulationError
from repro.models.config import TransformerConfig
from repro.models.mlp import GptMlp
from repro.pipeline import Session, SweepPoint, sweep_archs
from repro.service import SweepResultStore, SweepService
from repro.service.fakes import FakeResultStore, FakeWorker

TINY = TransformerConfig(name="tiny-service", hidden=256, layers=2, tensor_parallel=8)


@pytest.fixture()
def workload():
    return GptMlp(config=TINY, batch_seq=96)


@pytest.fixture()
def graph(workload):
    return workload.to_graph()


def _grid(graph):
    return sweep_archs(graph, ("V100", "A100"), policies=("TileSync", "RowSync"))


def run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_concurrent_clients_simulate_each_novel_point_once(self, graph):
        """The acceptance property: overlapping grids from concurrent
        clients coalesce onto one evaluation per novel point."""
        work = _grid(graph)
        worker = FakeWorker(delay_s=0.02)
        store = FakeResultStore()

        async def scenario():
            with SweepService(store=store, worker=worker) as service:
                jobs = await asyncio.gather(
                    *[service.submit(list(work)) for _ in range(5)]
                )
                batches = await asyncio.gather(*[job.results() for job in jobs])
                return service, batches

        service, batches = run(scenario())
        assert worker.calls == len(work)
        assert store.writes == len(work)
        assert service.points_simulated == len(work)
        assert service.points_coalesced == 4 * len(work)
        assert service.points_submitted == 5 * len(work)
        for batch in batches[1:]:
            assert batch == batches[0]

    def test_duplicates_within_one_submission_coalesce(self, graph, workload):
        point = SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)
        worker = FakeWorker(delay_s=0.02)

        async def scenario():
            with SweepService(session=Session(arch=workload.arch), worker=worker) as service:
                outcomes = await (await service.submit([(graph, point)] * 4)).outcomes()
                return service, outcomes

        service, outcomes = run(scenario())
        assert worker.calls == 1
        assert sorted(o.source for o in outcomes) == [
            "coalesced",
            "coalesced",
            "coalesced",
            "simulated",
        ]
        assert len({o.result.total_time_us for o in outcomes}) == 1

    def test_coalesced_failures_share_fate_but_next_submission_retries(
        self, graph, workload
    ):
        point = SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)
        worker = FakeWorker(delay_s=0.02, fail=lambda g, p: worker.calls == 1)
        store = FakeResultStore()

        async def scenario():
            with SweepService(
                session=Session(arch=workload.arch), store=store, worker=worker
            ) as service:
                first = await (await service.submit([(graph, point)] * 3)).results()
                second = await (await service.submit([(graph, point)])).results()
                return service, first, second

        service, first, second = run(scenario())
        # One evaluation failed; all three submissions of the point saw it.
        assert worker.calls == 2
        assert [r.ok for r in first] == [False, False, False]
        assert service.failures == 1
        # Failures are never persisted or cached: the retry simulated fresh
        # and succeeded, and only the success was written to the store.
        assert second[0].ok
        assert store.writes == 1

    def test_uncacheable_points_never_coalesce(self, graph):
        # A policy that cannot coerce to a PolicyAssignment has no trace
        # key; every submission evaluates independently.
        point = SweepPoint(scheme="cusync", policy=1234, arch="V100")
        worker = FakeWorker()

        async def scenario():
            with SweepService(worker=worker) as service:
                assert service.session.sweep_trace_key(graph, point) is None
                await service.sweep([(graph, point)])
                await service.sweep([(graph, point)])

        run(scenario())
        assert worker.calls == 2


class TestTiers:
    def test_memory_tier_replays_without_worker_or_store(self, graph, workload):
        point = SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)
        worker = FakeWorker()
        store = FakeResultStore()

        async def scenario():
            with SweepService(
                session=Session(arch=workload.arch), store=store, worker=worker
            ) as service:
                await service.sweep([(graph, point)])
                job = await service.submit([(graph, point)])
                (outcome,) = await job.outcomes()
                return service, outcome

        service, outcome = run(scenario())
        assert outcome.source == "memory"
        assert outcome.result.cached
        assert worker.calls == 1
        assert service.memory_hits == 1
        # The memory probe never touched the store.
        assert len(store.get_log) == 1

    def test_store_tier_warms_memory(self, graph, workload):
        session_a = Session(arch=workload.arch)
        point = SweepPoint(scheme="cusync", policy="TileSync", arch="V100")
        store = FakeResultStore()
        worker = FakeWorker()

        async def warm_store():
            with SweepService(session=session_a, store=store, worker=worker) as service:
                return await service.sweep([(graph, point)])

        (first,) = run(warm_store())
        assert store.writes == 1

        # A brand-new session: memory cold, store warm.
        session_b = Session(arch=workload.arch)

        async def replay():
            with SweepService(session=session_b, store=store, worker=worker) as service:
                job = await service.submit([(graph, point)])
                (hit,) = await job.outcomes()
                job2 = await service.submit([(graph, point)])
                (warm,) = await job2.outcomes()
                return service, hit, warm

        service, hit, warm = run(replay())
        assert worker.calls == 1  # never re-simulated
        assert hit.source == "store"
        assert warm.source == "memory"  # the store hit warmed the memory tier
        assert service.store_hits == 1 and service.memory_hits == 1
        assert hit.result == first

    def test_store_errors_fall_through_to_simulation(self, graph, workload):
        point = SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)
        store = FakeResultStore(fail_reads=True, fail_writes=True)
        worker = FakeWorker()

        async def scenario():
            with SweepService(
                session=Session(arch=workload.arch), store=store, worker=worker
            ) as service:
                (result,) = await service.sweep([(graph, point)])
                return service, result

        service, result = run(scenario())
        assert result.ok
        assert worker.calls == 1
        assert service.store_errors == 2  # one failed read, one failed write

    def test_worker_must_return_result_or_failure(self, graph, workload):
        class BrokenWorker:
            def evaluate(self, graph, point):
                return "nonsense"

        point = SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)

        async def scenario():
            with SweepService(
                session=Session(arch=workload.arch), worker=BrokenWorker()
            ) as service:
                await service.sweep([(graph, point)])

        with pytest.raises(SimulationError, match="SweepResult or SweepFailure"):
            run(scenario())

    def test_session_owned_store_replays_in_a_fresh_session(self, workload, tmp_path):
        # No store= keyword: the service walks the store its session holds.
        async def sweep(session):
            with SweepService(session=session) as service:
                job = await service.submit(_grid(workload.to_graph()))
                return service, await job.outcomes()

        cold_store = SweepResultStore(tmp_path)
        cold_service, cold = run(sweep(Session(result_store=cold_store)))
        assert cold_service.points_simulated == len(cold)
        assert cold_store.writes == len(cold)

        session = Session(result_store=SweepResultStore(tmp_path))
        warm_service, warm = run(sweep(session))
        assert [o.source for o in warm] == ["store"] * len(cold)
        assert warm_service.points_simulated == 0
        assert warm_service.store_hits == session.sweep_store_hits == len(cold)
        assert [o.result for o in warm] == [o.result for o in cold]

    def test_a_session_holds_one_store(self, tmp_path):
        own, other = SweepResultStore(tmp_path / "own"), SweepResultStore(tmp_path / "other")
        session = Session(result_store=own)
        with pytest.raises(SimulationError, match="result store") as refused:
            SweepService(session=session, store=other)
        assert repr(own) in str(refused.value) and repr(other) in str(refused.value)
        assert session.result_store is own
        with SweepService(session=session, store=own) as service:
            assert service.session.result_store is own

    def test_store_keyword_attaches_to_the_session(self):
        store = FakeResultStore()
        with SweepService(store=store, worker=FakeWorker()) as service:
            assert service.session.result_store is store
            assert not hasattr(service, "store")


class TestJobInterface:
    def test_results_are_position_aligned(self, graph, workload):
        work = _grid(graph)

        async def scenario():
            with SweepService(session=Session(arch=workload.arch), worker=FakeWorker()) as service:
                job = await service.submit(list(work))
                results = await job.results()
                outcomes = await job.outcomes()
                return results, outcomes

        results, outcomes = run(scenario())
        assert len(results) == len(work)
        assert [o.position for o in outcomes] == list(range(len(work)))
        for (g, point), result in zip(work, results):
            assert result.scheme == point.scheme
            assert result.policy == point.policy

    def test_stream_yields_every_outcome(self, graph, workload):
        work = _grid(graph)

        async def scenario():
            with SweepService(session=Session(arch=workload.arch), worker=FakeWorker()) as service:
                job = await service.submit(list(work))
                streamed = [outcome async for outcome in job.stream()]
                assert job.done
                return streamed

        streamed = run(scenario())
        assert sorted(o.position for o in streamed) == list(range(len(work)))

    def test_replays_carry_requested_spelling_and_label(self, workload):
        from repro.cusync.policies import PolicyAssignment

        graph = workload.to_graph()
        worker = FakeWorker(delay_s=0.02)
        spellings = ["TileSync", PolicyAssignment(default="TileSync")]
        work = [
            (graph, SweepPoint(scheme="cusync", policy=policy, arch=workload.arch))
            for policy in spellings
        ]

        async def scenario():
            with SweepService(session=Session(arch=workload.arch), worker=worker) as service:
                return await (await service.submit(work)).results()

        results = run(scenario())
        assert worker.calls == 1  # equivalent spellings coalesced
        assert [r.policy for r in results] == spellings
        assert results[0].total_time_us == results[1].total_time_us

    def test_invalid_work_items_rejected(self, graph):
        async def scenario():
            with SweepService(worker=FakeWorker()) as service:
                await service.submit([(graph, "not a point")])

        with pytest.raises(SimulationError, match="pairs"):
            run(scenario())

    @pytest.mark.parametrize(
        "name, value", [("mode", "thread"), ("retries", -1), ("timeout", float("nan"))]
    )
    def test_invalid_worker_settings_rejected_when_built(self, name, value):
        with pytest.raises(SimulationError, match=name):
            SweepService(**{name: value})


class TestParallelResolves:
    """``Session.resolve`` runs on the service's pool threads, which share
    the session's memory tier and store counters."""

    def test_no_store_hit_or_error_is_lost(self):
        graphs = [GptMlp(config=TINY, batch_seq=32 * n).to_graph() for n in range(1, 17)]
        work = [item for graph in graphs for item in _grid(graph)]
        store = FakeResultStore()
        broken = FakeResultStore(fail_reads=True, fail_writes=True)

        async def sweep(session):
            # Eight threads on a two-core host, switching as often as possible.
            with SweepService(session=session, worker=FakeWorker(), max_parallel=8) as service:
                results = await asyncio.wait_for(service.sweep(list(work)), timeout=60)
                return service, results

        run(sweep(Session(result_store=store)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            replay = Session(result_store=store)
            replayed, results = run(sweep(replay))
            failing = Session(result_store=broken)
            degraded, _ = run(sweep(failing))
        finally:
            sys.setswitchinterval(interval)
        assert all(result.ok for result in results)
        assert replayed.store_hits == replay.sweep_store_hits == len(work)
        assert replay.sweep_cache_size == len(work)
        assert degraded.points_simulated == len(work)
        assert degraded.store_errors == failing.sweep_store_errors == 2 * len(work)


class TestEndToEnd:
    """Real session, real simulations, real disk store."""

    def test_disk_backed_service_replays_across_sessions(self, workload, tmp_path):
        work = [
            (
                workload.to_graph(),
                SweepPoint(scheme="cusync", policy="TileSync", arch="V100"),
            ),
            (
                workload.to_graph(),
                SweepPoint(scheme="streamsync", policy=None, arch="V100"),
            ),
        ]
        root = tmp_path / "results"

        async def cold():
            with SweepService(
                session=Session(arch=workload.arch), store=SweepResultStore(root)
            ) as service:
                results = await service.sweep(list(work))
                return service, results

        service_a, first = run(cold())
        assert service_a.points_simulated == len(work)
        assert all(r.ok for r in first)

        async def warm():
            with SweepService(
                session=Session(arch=workload.arch), store=SweepResultStore(root)
            ) as service:
                results = await service.sweep(
                    [
                        (
                            workload.to_graph(),
                            SweepPoint(scheme="cusync", policy="TileSync", arch="V100"),
                        ),
                        (
                            workload.to_graph(),
                            SweepPoint(scheme="streamsync", policy=None, arch="V100"),
                        ),
                    ]
                )
                return service, results

        service_b, replayed = run(warm())
        assert service_b.points_simulated == 0
        assert service_b.store_hits == len(work)
        assert replayed == first
        for fresh, again in zip(first, replayed):
            assert again.total_time_us == fresh.total_time_us
            assert again.kernel_durations_us == fresh.kernel_durations_us

    def test_session_worker_inherits_collect_semantics(self, workload, graph):
        # An injected evaluation fault surfaces as the session layer's
        # structured failure — the service never raises for a failing
        # point and never caches it.
        from repro.testing import FaultPlan, FaultSpec, inject_faults

        point = SweepPoint(scheme="cusync", policy="TileSync", arch="V100")
        session = Session(arch=workload.arch)

        async def scenario():
            with SweepService(session=session) as service:
                with inject_faults(FaultPlan([FaultSpec(kind="error", point=0)])):
                    (failure,) = await service.sweep([(graph, point)])
                (recovered,) = await service.sweep([(graph, point)])
                return failure, recovered

        failure, recovered = run(scenario())
        assert not failure.ok
        assert failure.attempts == 1
        assert failure.error_type
        assert recovered.ok and not recovered.cached


class TestCancellationAndTimeouts:
    """Graceful cancellation: waiters release, evaluations are never poisoned."""

    def point(self, workload):
        return SweepPoint(scheme="cusync", policy="TileSync", arch=workload.arch)

    def test_cancel_before_start_skips_evaluation(self, graph, workload):
        from repro.service import JobCancelled

        worker = FakeWorker(delay_s=0.05)

        async def scenario():
            with SweepService(session=Session(arch=workload.arch), worker=worker) as service:
                job = await service.submit([(graph, self.point(workload))])
                job.cancel()
                assert job.cancelled
                (outcome,) = await job.outcomes()
                await service.drain()
                return service, outcome

        service, outcome = run(scenario())
        assert outcome.source == "cancelled"
        assert isinstance(outcome.result, JobCancelled)
        assert outcome.result.reason == "cancelled"
        assert not outcome.result.ok and not outcome.ok
        assert "cancelled" in outcome.result.describe()
        assert worker.calls == 0  # nothing was ever evaluated
        assert service.points_cancelled == 1
        assert service.stats()["points_cancelled"] == 1

    def test_cancel_does_not_poison_coalesced_jobs(self, graph, workload):
        """The headline property: job A cancels mid-flight; job B, coalesced
        on the same point, still receives the real result."""
        from repro.service import JobCancelled

        point = self.point(workload)
        worker = FakeWorker(delay_s=0.05)

        async def scenario():
            with SweepService(session=Session(arch=workload.arch), worker=worker) as service:
                job_a = await service.submit([(graph, point)])
                await asyncio.sleep(0.01)  # resolver is now in flight
                job_b = await service.submit([(graph, point)])
                job_a.cancel()
                (outcome_a,) = await job_a.outcomes()
                (outcome_b,) = await job_b.outcomes()
                await service.drain()
                return service, outcome_a, outcome_b

        service, outcome_a, outcome_b = run(scenario())
        assert isinstance(outcome_a.result, JobCancelled)
        assert outcome_a.result.waited_s >= 0.0
        assert outcome_b.ok
        assert outcome_b.source == "coalesced"
        assert outcome_b.result.total_time_us > 0.0
        assert worker.calls == 1  # the evaluation ran exactly once, to completion

    def test_cancel_keeps_already_resolved_points(self, graph, workload):
        from repro.service import JobCancelled

        point = self.point(workload)
        slow_graph = graph  # same graph, different (uncacheable) point
        slow_point = SweepPoint(scheme="streamsync", policy=None, arch=workload.arch)
        worker = FakeWorker(delay_s=0.05)

        async def scenario():
            with SweepService(session=Session(arch=workload.arch), worker=worker) as service:
                await service.sweep([(graph, point)])  # pre-warm the memory tier
                job = await service.submit([(graph, point), (slow_graph, slow_point)])
                await asyncio.sleep(0.01)  # memory hit resolves immediately
                job.cancel()
                outcomes = await job.outcomes()
                await service.drain()
                return outcomes

        first, second = run(scenario())
        assert first.source == "memory" and first.ok
        assert isinstance(second.result, JobCancelled)

    def test_timeout_releases_job_but_evaluation_completes(self, graph, workload):
        from repro.service import JobCancelled

        point = self.point(workload)
        worker = FakeWorker(delay_s=0.1)

        async def scenario():
            with SweepService(session=Session(arch=workload.arch), worker=worker) as service:
                (result,) = await service.sweep([(graph, point)], timeout_s=0.01)
                await service.drain()  # abandoned evaluation finishes anyway
                job = await service.submit([(graph, point)])
                (warm,) = await job.outcomes()
                return service, result, warm

        service, result, warm = run(scenario())
        assert isinstance(result, JobCancelled)
        assert result.reason == "timeout"
        assert warm.ok and warm.source == "memory"  # cached by the background finish
        assert worker.calls == 1
        assert service.points_cancelled == 1

    @pytest.mark.parametrize("timeout_s", [0.0, float("nan")])
    def test_invalid_timeout_rejected(self, graph, workload, timeout_s):
        async def scenario():
            with SweepService(session=Session(arch=workload.arch), worker=FakeWorker()) as service:
                await service.submit([(graph, self.point(workload))], timeout_s=timeout_s)

        with pytest.raises(SimulationError, match="timeout_s"):
            run(scenario())
