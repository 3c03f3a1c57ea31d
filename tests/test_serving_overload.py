"""Overload resilience: admission control, shedding, preemption, chaos.

The acceptance contract of the overload subsystem (ISSUE 10):

* **Everything resolves** — under any shedding policy, every generated
  request terminates as exactly one of completed or shed; nothing is
  silently dropped and nothing is double-counted.
* **KV is never exceeded** — the batcher's reservation never passes
  ``max_kv_tokens``, preemption included (final-footprint reservation
  makes this hold by construction; the property test checks it anyway).
* **Structured failure** — a mis-sized scenario raises
  :class:`~repro.errors.ServingStallError` with queue forensics instead
  of spinning.
* **Chaos leaves no residue** — a seeded fault plan perturbs the serving
  loop deterministically, and a fault-free replay of the same scenario
  (same session, warm sweep cache) stays bit-identical to a pristine run.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ServingError, ServingStallError
from repro.models.config import TransformerConfig
from repro.pipeline import Session
from repro.serving import (
    ContinuousBatcher,
    FixedRateArrivals,
    InferenceRequest,
    PoissonArrivals,
    ServingScenario,
    ServingSimulator,
    SHED_POLICIES,
)
from repro.testing import ServingFaultPlan, ServingFaultSpec

TINY = TransformerConfig(name="srv-tiny", hidden=256, layers=2, tensor_parallel=8)


def request(rid, arrival=0.0, prompt=8, decode=4, deadline=None, priority=0):
    import math

    return InferenceRequest(
        request_id=rid,
        arrival_us=arrival,
        prompt_tokens=prompt,
        decode_tokens=decode,
        deadline_us=math.inf if deadline is None else deadline,
        priority=priority,
    )


class TestBatcherConfigValidation:
    def test_policies_are_registered(self):
        assert SHED_POLICIES == ("none", "reject-on-full", "shed-expired", "priority")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ServingError):
            ContinuousBatcher(shed_policy="drop-everything")

    def test_max_queue_requires_a_policy(self):
        with pytest.raises(ServingError):
            ContinuousBatcher(shed_policy="none", max_queue=4)

    def test_reject_on_full_requires_max_queue(self):
        with pytest.raises(ServingError):
            ContinuousBatcher(shed_policy="reject-on-full")

    def test_preemption_requires_priority_policy(self):
        with pytest.raises(ServingError):
            ContinuousBatcher(shed_policy="shed-expired", preemption=True)

    def test_readmit_validates_generated(self):
        batcher = ContinuousBatcher()
        with pytest.raises(ServingError):
            batcher.readmit(request(0, decode=4), generated=4)
        with pytest.raises(ServingError):
            batcher.readmit(request(0, decode=4), generated=-1)


class TestSheddingPolicies:
    def test_none_policy_never_sheds(self):
        batcher = ContinuousBatcher(max_batch=1, shed_policy="none")
        for i in range(50):
            assert batcher.enqueue(request(i, arrival=float(i))) is None
        assert batcher.shed == 0
        assert batcher.queued == 50

    def test_reject_on_full_sheds_the_newcomer(self):
        batcher = ContinuousBatcher(
            max_batch=1, shed_policy="reject-on-full", max_queue=2
        )
        assert batcher.enqueue(request(0)) is None
        assert batcher.enqueue(request(1)) is None
        record = batcher.enqueue(request(2, arrival=5.0), now_us=9.0)
        assert record is not None
        assert record.request_id == 2
        assert record.reason == "queue-full"
        assert record.queue_depth == 2
        assert record.waited_us == pytest.approx(4.0)
        assert batcher.queued == 2  # original entries untouched
        assert batcher.drain_shed() == (record,)
        assert batcher.drain_shed() == ()  # cursor advanced

    def test_shed_expired_on_arrival(self):
        batcher = ContinuousBatcher(shed_policy="shed-expired")
        record = batcher.enqueue(
            request(0, arrival=0.0, deadline=10.0), now_us=25.0
        )
        assert record is not None and record.reason == "deadline-expired"
        assert batcher.queued == 0

    def test_shed_expired_sweeps_queue_at_plan_time(self):
        batcher = ContinuousBatcher(max_batch=1, shed_policy="shed-expired")
        batcher.enqueue(request(0, deadline=100.0))
        batcher.enqueue(request(1, arrival=0.0, deadline=50.0))
        plan = batcher.next_plan(now_us=60.0)  # request 1 expired while queued
        assert plan.request_ids == (0,)
        (record,) = batcher.drain_shed()
        assert record.request_id == 1
        assert record.reason == "deadline-expired"
        assert record.waited_us == pytest.approx(60.0)

    def test_priority_overflow_sheds_lowest_priority(self):
        batcher = ContinuousBatcher(
            max_batch=1, shed_policy="priority", max_queue=2
        )
        batcher.enqueue(request(0, priority=1))
        batcher.enqueue(request(1, priority=0))
        # A high-priority newcomer squeezes out the lowest-priority entry.
        record = batcher.enqueue(request(2, priority=5), now_us=1.0)
        assert record.request_id == 1
        assert record.reason == "queue-full"
        assert batcher.queued == 2

    def test_priority_overflow_sheds_low_priority_newcomer(self):
        batcher = ContinuousBatcher(
            max_batch=1, shed_policy="priority", max_queue=2
        )
        batcher.enqueue(request(0, priority=3))
        batcher.enqueue(request(1, priority=3))
        record = batcher.enqueue(request(2, priority=0), now_us=1.0)
        assert record.request_id == 2  # newcomer loses to queued higher priority
        assert batcher.queued == 2

    def test_priority_admission_order(self):
        batcher = ContinuousBatcher(max_batch=1, shed_policy="priority")
        batcher.enqueue(request(0, arrival=0.0, priority=0))
        batcher.enqueue(request(1, arrival=1.0, priority=7))
        plan = batcher.next_plan(now_us=2.0)
        assert plan.request_ids == (1,)  # priority beats FIFO

    def test_oversized_request_still_an_error_not_a_shed(self):
        batcher = ContinuousBatcher(
            max_kv_tokens=16, shed_policy="reject-on-full", max_queue=4
        )
        with pytest.raises(ServingError):
            batcher.enqueue(request(0, prompt=100, decode=4))


class TestPreemption:
    def make_full(self, **kwargs):
        """Two priority-0 sequences filling a 32-token / 2-slot batcher."""
        batcher = ContinuousBatcher(
            max_batch=2,
            max_kv_tokens=32,
            shed_policy="priority",
            preemption=True,
            **kwargs,
        )
        for rid in (0, 1):
            batcher.enqueue(request(rid, arrival=float(rid), prompt=8, decode=8))
            plan = batcher.next_plan(now_us=float(rid))
            batcher.advance(plan)
        assert batcher.kv_reserved == 32 and batcher.running == 2
        return batcher

    def test_preempts_lower_priority_and_releases_kv(self):
        batcher = self.make_full()
        batcher.enqueue(request(2, arrival=2.0, prompt=8, decode=8, priority=5))
        plan = batcher.next_plan(now_us=2.0)
        assert plan.phase == "prefill" and plan.request_ids == (2,)
        (record,) = batcher.drain_preemptions()
        # Most recently admitted victim (LIFO — least sunk work).
        assert record.request_id == 1
        assert record.kv_released == 16
        assert record.generated_tokens == 1  # one prefill token produced
        assert batcher.kv_reserved == 32  # victim out, candidate in
        assert batcher.kv_reserved_peak == 32  # never exceeded mid-swap
        assert batcher.restarted_tokens == 1
        assert batcher.queued == 1  # victim re-queued, progress preserved

    def test_victim_resumes_with_recompute_prefill(self):
        batcher = self.make_full()
        batcher.enqueue(request(2, arrival=2.0, prompt=8, decode=8, priority=5))
        batcher.advance(batcher.next_plan(now_us=2.0))  # candidate prefills
        # Drain the high-priority winner and the survivor to make room.
        for now in (3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0):
            plan = batcher.next_plan(now_us=now)
            if plan is None:
                break
            batcher.advance(plan)
            if plan.phase == "prefill" and 1 in plan.request_ids:
                # The re-prefill recomputes prompt + generated rows.
                assert plan.rows >= 8 + 1
                return
        pytest.fail("victim was never re-admitted")

    def test_equal_priority_never_preempted(self):
        batcher = self.make_full()
        batcher.enqueue(request(2, arrival=2.0, prompt=8, decode=8, priority=0))
        plan = batcher.next_plan(now_us=2.0)
        assert plan.phase == "decode"  # no room made; running sequences proceed
        assert batcher.preemptions == 0

    def test_anti_thrash_guard_blocks_repreemption(self):
        batcher = self.make_full(min_preempt_gap=100)
        batcher.enqueue(request(2, arrival=2.0, prompt=8, decode=8, priority=5))
        batcher.advance(batcher.next_plan(now_us=2.0))
        assert batcher.preemptions == 1
        # Victim (request 1) is queued; an even higher-priority arrival
        # cannot evict again — only request 0 remains eligible, and
        # evicting it alone is enough.  But re-preempting the *restarted*
        # request 1 is blocked for min_preempt_gap iterations once it is
        # running again.
        records = {r.request_id for r in batcher.preemption_records}
        assert records == {1}
        # Drain until request 1 runs again, then hit it with priority 9.
        for now in range(3, 40):
            plan = batcher.next_plan(now_us=float(now))
            if plan is None:
                break
            batcher.advance(plan)
        # request 1 eventually completed despite the overload: the guard
        # kept it from being evicted a second time.
        assert [r.request_id for r in batcher.preemption_records].count(1) == 1

    def test_no_partial_eviction_when_room_cannot_be_made(self):
        # Candidate needs more KV than evicting everything would free.
        batcher = ContinuousBatcher(
            max_batch=2, max_kv_tokens=40, shed_policy="priority", preemption=True
        )
        batcher.enqueue(request(0, prompt=8, decode=8))
        batcher.advance(batcher.next_plan(now_us=0.0))
        batcher.enqueue(request(1, arrival=1.0, prompt=8, decode=8))
        batcher.advance(batcher.next_plan(now_us=1.0))
        batcher.enqueue(request(2, arrival=2.0, prompt=30, decode=8, priority=9))
        plan = batcher.next_plan(now_us=2.0)
        # 38 > 40 - 32 + 16: one eviction is not enough, two would be —
        # and two ARE enough, so both go.  Now make it impossible:
        batcher2 = ContinuousBatcher(
            max_batch=2, max_kv_tokens=40, shed_policy="priority", preemption=True
        )
        batcher2.enqueue(request(0, prompt=16, decode=8))
        batcher2.advance(batcher2.next_plan(now_us=0.0))
        batcher2.enqueue(request(2, arrival=1.0, prompt=30, decode=9, priority=9))
        plan2 = batcher2.next_plan(now_us=1.0)
        # 39 KV needed, 40 total: fits only if the victim goes; it does.
        assert plan2.request_ids == (2,)
        assert batcher2.kv_reserved == 39
        # Impossible case: candidate bigger than the whole budget is an
        # enqueue-time error (covered elsewhere); candidate that fits the
        # budget but not alongside an unpreemptible peer waits.
        batcher3 = ContinuousBatcher(
            max_batch=2, max_kv_tokens=40, shed_policy="priority", preemption=True
        )
        batcher3.enqueue(request(0, prompt=16, decode=8, priority=9))
        batcher3.advance(batcher3.next_plan(now_us=0.0))
        batcher3.enqueue(request(1, arrival=1.0, prompt=30, decode=9, priority=5))
        plan3 = batcher3.next_plan(now_us=1.0)
        assert plan3.phase == "decode"  # no eviction of higher priority
        assert batcher3.preemptions == 0
        assert batcher3.queued == 1

    def test_preemption_records_are_complete(self):
        batcher = self.make_full()
        batcher.enqueue(request(2, arrival=7.5, prompt=8, decode=8, priority=3))
        batcher.next_plan(now_us=7.5)
        (record,) = batcher.preemption_records
        assert record.preempted_us == 7.5
        assert record.priority == 0
        assert record.iteration == 2
        assert batcher.preemptions == 1


class TestWatchdogs:
    def overloaded(self, **limits):
        return ServingScenario(
            arrivals=FixedRateArrivals(interval_us=10.0, prompt_tokens=16, decode_tokens=4),
            requests=24,
            config=TINY,
            max_batch=4,
            max_kv_tokens=256,
            max_prefill_tokens=64,
            **limits,
        )

    def test_max_iterations_raises_structured_stall(self):
        with pytest.raises(ServingStallError) as info:
            ServingSimulator(scheme="cusync", session=Session()).run(
                self.overloaded(max_iterations=3)
            )
        error = info.value
        assert error.guard == "max_iterations"
        assert error.iterations == 4  # tripped on the iteration past the limit
        assert error.total_requests == 24
        assert error.completed + error.shed < 24
        assert error.queue_depth > 0 or error.running > 0
        assert error.oldest_request_id is not None
        assert error.oldest_waited_us >= 0.0
        report = error.report()
        assert "max_iterations" in report
        assert "queue depth" in report

    def test_max_sim_time_raises_structured_stall(self):
        with pytest.raises(ServingStallError) as info:
            ServingSimulator(scheme="cusync", session=Session()).run(
                self.overloaded(max_sim_time_us=100.0)
            )
        error = info.value
        assert error.guard == "max_sim_time_us"
        assert error.simulated_time_us > 100.0
        assert error.limit == 100.0

    def test_generous_limits_do_not_trip(self):
        report = ServingSimulator(scheme="cusync", session=Session()).run(
            self.overloaded(max_iterations=10_000, max_sim_time_us=1e9)
        )
        assert report.completed == 24

    def test_scenario_validates_watchdog_limits(self):
        with pytest.raises(ServingError):
            self.overloaded(max_iterations=0)
        with pytest.raises(ServingError):
            self.overloaded(max_sim_time_us=-1.0)

    def test_nan_max_iterations_rejected(self):
        """A NaN limit fails every comparison, so it would never trip."""
        with pytest.raises(ServingError, match="max_iterations must be positive, got nan"):
            self.overloaded(max_iterations=float("nan"))


def overload_scenario(shed=False):
    """A ~2x-overload mixed-priority scenario (rate calibrated offline)."""
    scenario = ServingScenario(
        arrivals=PoissonArrivals(
            rate_rps=10_000.0,
            prompt_tokens=(16, 96),
            decode_tokens=(2, 8),
            seed=7,
            deadline_slack_us=(3_000.0, 12_000.0),
            priorities=(0, 0, 1, 2),
        ),
        requests=40,
        config=TINY,
        max_batch=4,
        max_kv_tokens=1024,
        max_prefill_tokens=128,
        slo_us=6_000.0,
    )
    if shed:
        scenario = replace(
            scenario, shed_policy="priority", max_queue=6, preemption=True
        )
    return scenario


class TestOverloadScenario:
    def test_priority_bounds_tail_latency_under_overload(self):
        unbounded = ServingSimulator(scheme="cusync", session=Session()).run(
            overload_scenario(shed=False)
        )
        bounded = ServingSimulator(scheme="cusync", session=Session()).run(
            overload_scenario(shed=True)
        )
        # Legacy policy completes everything, late; priority sheds the
        # low class and keeps the tail bounded.
        assert unbounded.completed == 40 and unbounded.shed == 0
        assert bounded.completed + bounded.shed == 40
        assert bounded.shed > 0
        assert bounded.preemptions > 0
        assert bounded.p99_total_us < unbounded.p99_total_us
        assert bounded.kv_reserved_peak <= 1024

    def test_high_priority_classes_fully_served(self):
        report = ServingSimulator(scheme="cusync", session=Session()).run(
            overload_scenario(shed=True)
        )
        classes = {c.priority: c for c in report.priority_classes}
        priorities = [c.priority for c in report.priority_classes]
        assert priorities == sorted(priorities, reverse=True)
        for priority in (1, 2):
            assert classes[priority].shed == 0
            assert classes[priority].completed > 0
        assert classes[0].shed > 0  # all shedding lands on the low class
        assert report.shed == sum(c.shed for c in report.priority_classes)
        assert report.completed == sum(c.completed for c in report.priority_classes)

    def test_completed_requests_meet_deadlines_under_shedding(self):
        report = ServingSimulator(scheme="cusync", session=Session()).run(
            overload_scenario(shed=True)
        )
        assert report.deadline_hits == report.completed

    def test_overload_run_is_deterministic(self):
        first = ServingSimulator(scheme="cusync", session=Session()).run(
            overload_scenario(shed=True)
        )
        second = ServingSimulator(scheme="cusync", session=Session()).run(
            overload_scenario(shed=True)
        )
        assert first == second  # shed records and priority classes included

    def test_shed_records_surface_in_report(self):
        report = ServingSimulator(scheme="cusync", session=Session()).run(
            overload_scenario(shed=True)
        )
        assert len(report.shed_records) == report.shed
        for record in report.shed_records:
            assert record.reason in ("queue-full", "deadline-expired")
            assert record.waited_us >= 0.0
        summary = report.summary()
        assert summary["shed"] == report.shed
        assert summary["preemptions"] == report.preemptions
        assert "priority_classes" in summary
        assert "[shed" in report.describe()


class TestChaosAcceptance:
    FAULTS = dict(straggler=0.15, drop_completion=0.1, burst=0.05)

    def test_every_request_resolves_under_chaos_and_overload(self):
        faults = ServingFaultPlan.seeded(40, seed=23, **self.FAULTS)
        assert len(faults) > 0
        report = ServingSimulator(scheme="cusync", session=Session()).run(
            overload_scenario(shed=True), faults=faults
        )
        assert report.completed + report.shed == 40
        assert report.kv_reserved_peak <= 1024

    def test_chaos_is_deterministic(self):
        faults = ServingFaultPlan.seeded(40, seed=23, **self.FAULTS)
        runs = [
            ServingSimulator(scheme="cusync", session=Session()).run(
                overload_scenario(shed=True), faults=faults
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_fault_free_replay_is_bit_identical(self):
        # One shared session: the faulted run in the middle must leave no
        # residue in the sweep cache that a clean replay could observe.
        session = Session()
        scenario = overload_scenario(shed=True)
        pristine = ServingSimulator(scheme="cusync", session=session).run(scenario)
        faults = ServingFaultPlan.seeded(40, seed=23, **self.FAULTS)
        faulted = ServingSimulator(scheme="cusync", session=session).run(
            scenario, faults=faults
        )
        assert faulted != pristine  # the chaos actually did something
        replay = ServingSimulator(scheme="cusync", session=session).run(scenario)
        assert replay.records == pristine.records
        assert replay.shed_records == pristine.shed_records
        assert replay.p99_total_us == pristine.p99_total_us

    def test_dropped_completion_recomputes_and_completes(self):
        # Light load, one targeted drop: the request completes anyway,
        # later, with the retry's recompute visible in iteration counts.
        scenario = ServingScenario(
            arrivals=FixedRateArrivals(
                interval_us=5_000.0, prompt_tokens=16, decode_tokens=4
            ),
            requests=3,
            config=TINY,
            max_batch=4,
            max_kv_tokens=1024,
            max_prefill_tokens=128,
        )
        clean = ServingSimulator(scheme="cusync", session=Session()).run(scenario)
        faults = ServingFaultPlan(
            faults=(ServingFaultSpec(kind="drop_completion", target=1),)
        )
        faulted = ServingSimulator(scheme="cusync", session=Session()).run(
            scenario, faults=faults
        )
        assert faulted.completed == 3
        assert faulted.iterations > clean.iterations
        record = next(r for r in faulted.records if r.request_id == 1)
        clean_record = next(r for r in clean.records if r.request_id == 1)
        assert record.total_us > clean_record.total_us

    def test_straggler_stretches_the_run(self):
        scenario = overload_scenario(shed=False)
        clean = ServingSimulator(scheme="cusync", session=Session()).run(scenario)
        faults = ServingFaultPlan(
            faults=tuple(
                ServingFaultSpec(kind="straggler", target=i, factor=8.0)
                for i in range(0, 40, 2)
            )
        )
        faulted = ServingSimulator(scheme="cusync", session=Session()).run(
            scenario, faults=faults
        )
        assert faulted.simulated_us > clean.simulated_us

    def test_burst_compresses_arrivals(self):
        requests = PoissonArrivals(rate_rps=1_000.0, seed=3).generate(10)
        plan = ServingFaultPlan(
            faults=(ServingFaultSpec(kind="burst", target=4, span=4),)
        )
        bursty = plan.apply_to_arrivals(requests)
        anchor = bursty[4].arrival_us
        assert all(r.arrival_us == anchor for r in bursty[4:8])
        arrivals = [r.arrival_us for r in bursty]
        assert arrivals == sorted(arrivals)  # monotone preserved


class TestPreemptionProperty:
    """Hypothesis: the batcher invariants hold for arbitrary workloads."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        max_batch=st.integers(min_value=1, max_value=4),
        max_kv=st.integers(min_value=64, max_value=256),
        count=st.integers(min_value=1, max_value=20),
        preemption=st.booleans(),
    )
    # The last queued request is shed for an expired deadline inside
    # next_plan, which then returns None with everything resolved.
    @example(seed=7584, max_batch=1, max_kv=64, count=4, preemption=False)
    @example(seed=367, max_batch=1, max_kv=64, count=10, preemption=False)
    def test_kv_bounded_and_everything_resolves(
        self, seed, max_batch, max_kv, count, preemption
    ):
        rng = random.Random(seed)
        clock = 0.0
        requests = []
        for rid in range(count):
            clock += rng.uniform(0.0, 50.0)
            deadline = (
                clock + rng.uniform(20.0, 600.0) if rng.random() < 0.5 else None
            )
            requests.append(
                request(
                    rid,
                    arrival=clock,
                    prompt=rng.randint(1, 32),
                    decode=rng.randint(1, 8),
                    deadline=deadline,
                    priority=rng.randint(0, 2),
                )
            )
        batcher = ContinuousBatcher(
            max_batch=max_batch,
            max_kv_tokens=max_kv,
            max_prefill_tokens=64,
            shed_policy="priority",
            max_queue=4,
            preemption=preemption,
        )
        pending = sorted(requests, key=lambda r: (r.arrival_us, r.request_id))
        arrived = 0
        clock = 0.0
        completed = []
        shed = []
        for _ in range(5_000):
            if len(completed) + len(shed) >= count:
                break
            while arrived < len(pending) and pending[arrived].arrival_us <= clock:
                batcher.enqueue(pending[arrived], now_us=clock)
                arrived += 1
            plan = batcher.next_plan(now_us=clock)
            shed.extend(batcher.drain_shed())
            assert batcher.kv_reserved <= max_kv
            if plan is None:
                if len(completed) + len(shed) >= count:
                    break
                assert arrived < len(pending), "batcher stalled with work left"
                clock = max(clock, pending[arrived].arrival_us)
                continue
            clock += 10.0
            completed.extend(batcher.advance(plan))
            shed.extend(batcher.drain_shed())
        else:
            pytest.fail("workload did not resolve within the iteration bound")
        # KV never exceeded, ever.
        assert batcher.kv_reserved_peak <= max_kv
        # Every request resolves exactly once: completed xor shed.
        resolution = sorted(completed + [r.request_id for r in shed])
        assert resolution == list(range(count))
        # Token accounting across preemption restarts: every generated
        # token thrown away is recorded, nowhere else.
        assert batcher.restarted_tokens == sum(
            r.generated_tokens for r in batcher.preemption_records
        )
        if not preemption:
            assert batcher.preemptions == 0
