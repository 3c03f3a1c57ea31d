"""Fault-injection machinery, deadlock/livelock forensics, and the chaos
acceptance test.

The chaos test is the PR's headline invariant: a seeded fault plan that
faults well over 20% of a sweep's points, run with ``on_error="collect"``
and ``retries=2``, must return *every* point as either a bit-identical
:class:`SweepResult` (vs the fault-free sweep) or a structured
:class:`SweepFailure` — and must never write a poisoned cache entry.
"""

import math
import pickle
import time

import pytest

from repro.common.dim3 import Dim3
from repro.common.tiles import linearize
from repro.errors import (
    DeadlockError,
    InjectedCrashError,
    InjectedFaultError,
    LivelockError,
    SimulationError,
)
from repro.gpu.kernel import (
    KernelLaunch,
    Segment,
    SemPost,
    SemWait,
    ThreadBlockProgram,
    simple_kernel,
)
from repro.gpu.memory import GlobalMemory
from repro.gpu.simulator import GpuSimulator
from repro.gpu.stream import Stream
from repro.models import GptMlp, TransformerConfig
from repro.pipeline import Session, SweepFailure, SweepResult
from repro.testing import FAULT_KINDS, FaultPlan, FaultSpec, active_fault_plan, inject_faults
from repro.testing.faults import run_point_with_faults

TINY = TransformerConfig(name="tiny", hidden=256, layers=2, tensor_parallel=8)


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        first = FaultPlan.seeded(32, seed=11, crash=0.1, error=0.2, hang=0.1)
        second = FaultPlan.seeded(32, seed=11, crash=0.1, error=0.2, hang=0.1)
        assert first.faults == second.faults

    def test_seeded_full_fraction_faults_every_point(self):
        plan = FaultPlan.seeded(16, seed=0, error=1.0)
        assert plan.fault_fraction(16) == 1.0
        assert all(spec.kind == "error" for spec in plan.faults)

    def test_fractions_over_one_rejected(self):
        with pytest.raises(SimulationError, match="fractions"):
            FaultPlan.seeded(4, seed=0, crash=0.7, error=0.7)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown fault kind"):
            FaultSpec(kind="gremlin", point=0)

    def test_two_faults_per_point_rejected(self):
        with pytest.raises(SimulationError, match="two faults"):
            FaultPlan([FaultSpec(kind="error", point=0), FaultSpec(kind="hang", point=0)])

    def test_fault_fires_only_on_planned_attempts(self):
        plan = FaultPlan([FaultSpec(kind="error", point=2, attempts=(0, 1))])
        assert plan.fault_for(2, 0) is not None
        assert plan.fault_for(2, 1) is not None
        assert plan.fault_for(2, 2) is None
        assert plan.fault_for(3, 0) is None

    def test_plan_is_picklable(self):
        plan = FaultPlan.seeded(8, seed=3, crash=0.25, corrupt_result=0.25)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.faults == plan.faults
        assert clone.fault_points == plan.fault_points

    def test_inject_faults_installs_and_restores(self):
        assert active_fault_plan() is None
        plan = FaultPlan([FaultSpec(kind="error", point=0)])
        with inject_faults(plan):
            assert active_fault_plan() is plan
            inner = FaultPlan([])
            with inject_faults(inner):
                assert active_fault_plan() is inner
            assert active_fault_plan() is plan
        assert active_fault_plan() is None


class TestRunPointWithFaults:
    def _result(self):
        return SweepResult(
            scheme="cusync",
            policy="TileSync",
            arch_name="V100",
            total_time_us=1.0,
            total_wait_time_us=0.0,
            kernel_durations_us=(("k", 1.0),),
            graph_label="g",
        )

    def test_no_plan_is_a_passthrough(self):
        sentinel = object()
        assert run_point_with_faults(None, 0, 0, lambda: sentinel) is sentinel

    def test_unfaulted_point_is_a_passthrough(self):
        plan = FaultPlan([FaultSpec(kind="error", point=5)])
        sentinel = object()
        assert run_point_with_faults(plan, 0, 0, lambda: sentinel) is sentinel

    def test_error_fault_raises(self):
        plan = FaultPlan([FaultSpec(kind="error", point=0)])
        with pytest.raises(InjectedFaultError):
            run_point_with_faults(plan, 0, 0, self._result)

    def test_crash_fault_in_process_raises(self):
        plan = FaultPlan([FaultSpec(kind="crash", point=0)])
        with pytest.raises(InjectedCrashError):
            run_point_with_faults(plan, 0, 0, self._result, in_worker_process=False)

    def test_hang_fault_sleeps_then_evaluates(self):
        plan = FaultPlan([FaultSpec(kind="hang", point=0, hang_seconds=0.05)])
        started = time.monotonic()
        result = run_point_with_faults(plan, 0, 0, self._result)
        assert time.monotonic() - started >= 0.05
        assert isinstance(result, SweepResult)

    def test_corrupt_result_fault_produces_nan(self):
        plan = FaultPlan([FaultSpec(kind="corrupt_result", point=0)])
        result = run_point_with_faults(plan, 0, 0, self._result)
        assert math.isnan(result.total_time_us)


def _dependent_pair(grid, duration, memory):
    memory.alloc_semaphores("sems", grid.volume)

    def producer_program(tile):
        post = SemPost("sems", linearize(tile, grid))
        return ThreadBlockProgram(tile=tile, segments=[Segment(duration_us=duration, posts=[post])])

    def consumer_program(tile):
        wait = SemWait("sems", linearize(tile, grid), 1)
        return ThreadBlockProgram(tile=tile, segments=[Segment(duration_us=duration, waits=[wait])])

    producer = KernelLaunch("producer", grid, producer_program, stream=Stream(name="p"))
    consumer = KernelLaunch("consumer", grid, consumer_program, stream=Stream(name="c"))
    return producer, consumer


class TestSimulatorPostFaults:
    def test_drop_post_produces_deadlock_with_forensics(self, small_arch, small_cost_model):
        memory = GlobalMemory()
        grid = Dim3(2, 1, 1)
        producer, consumer = _dependent_pair(grid, 1.0, memory)
        plan = FaultPlan([FaultSpec(kind="drop_post", point=0, post_index=0)])

        def evaluate():
            return GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model).run(
                [producer, consumer]
            )

        with pytest.raises(DeadlockError) as excinfo:
            run_point_with_faults(plan, 0, 0, evaluate)
        error = excinfo.value
        assert error.waiters
        waiter = error.waiters[0]
        assert waiter.array == "sems"
        assert waiter.required == 1
        assert waiter.observed == 0
        assert waiter.deficit == 1

    def test_dup_post_taints_the_result(self, small_arch, small_cost_model):
        memory = GlobalMemory()
        grid = Dim3(2, 1, 1)
        producer, consumer = _dependent_pair(grid, 1.0, memory)
        plan = FaultPlan([FaultSpec(kind="dup_post", point=0, post_index=0)])

        def evaluate():
            return GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model).run(
                [producer, consumer]
            )

        with pytest.raises(InjectedFaultError, match="tainted"):
            run_point_with_faults(plan, 0, 0, evaluate)
        # The duplicated post really was applied twice.
        assert 2 in memory.snapshot_semaphores()["sems"]

    def test_unfired_post_fault_returns_clean_result(self, small_arch, small_cost_model):
        # post_index beyond the run's post count: the fault never fires
        # and the (trustworthy) result passes through.
        memory = GlobalMemory()
        grid = Dim3(2, 1, 1)
        producer, consumer = _dependent_pair(grid, 1.0, memory)
        plan = FaultPlan([FaultSpec(kind="drop_post", point=0, post_index=999)])

        def evaluate():
            return GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model).run(
                [producer, consumer]
            )

        result = run_point_with_faults(plan, 0, 0, evaluate)
        assert result.total_time_us > 0.0

    def test_fault_free_run_unaffected_by_other_points_fault(
        self, small_arch, small_cost_model
    ):
        plan = FaultPlan([FaultSpec(kind="drop_post", point=7, post_index=0)])

        def evaluate():
            memory = GlobalMemory()
            grid = Dim3(2, 1, 1)
            producer, consumer = _dependent_pair(grid, 1.0, memory)
            return GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model).run(
                [producer, consumer]
            )

        baseline = evaluate()
        faulted = run_point_with_faults(plan, 0, 0, evaluate)
        assert faulted.total_time_us == baseline.total_time_us


class TestDeadlockForensics:
    """Satellite: DeadlockError must name, per waiter, the semaphore array,
    index, required threshold and observed value."""

    def test_waiters_carry_semaphore_details(self, small_arch, small_cost_model):
        memory = GlobalMemory()
        grid = Dim3(4, 2, 1)
        producer, consumer = _dependent_pair(grid, 10.0, memory)
        with pytest.raises(DeadlockError) as excinfo:
            GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model).run(
                [consumer, producer]
            )
        error = excinfo.value
        # Legacy field (stuck block names) is preserved...
        assert error.waiting_blocks
        assert all(isinstance(name, str) for name in error.waiting_blocks)
        # ...and the structured forensics ride alongside.
        assert error.waiters
        for waiter in error.waiters:
            assert waiter.array == "sems"
            assert waiter.required == 1
            assert waiter.observed == 0
            assert waiter.deficit == 1
            assert "consumer" in waiter.block
            assert "sems[" in waiter.describe()
        # The report embeds the per-waiter lines.
        assert "sems[" in str(error)
        assert "observed 0" in str(error)

    def test_dependency_cycle_is_reported(self, small_arch, small_cost_model):
        memory = GlobalMemory()
        memory.alloc_semaphores("a_done", 1)
        memory.alloc_semaphores("b_done", 1)
        grid = Dim3(1, 1, 1)

        def program_a(tile):
            return ThreadBlockProgram(
                tile=tile,
                segments=[
                    Segment(
                        duration_us=1.0,
                        waits=[SemWait("b_done", 0, 1)],
                        posts=[SemPost("a_done", 0)],
                    )
                ],
            )

        def program_b(tile):
            return ThreadBlockProgram(
                tile=tile,
                segments=[
                    Segment(
                        duration_us=1.0,
                        waits=[SemWait("a_done", 0, 1)],
                        posts=[SemPost("b_done", 0)],
                    )
                ],
            )

        kernel_a = KernelLaunch("alpha", grid, program_a, stream=Stream(name="sa"))
        kernel_b = KernelLaunch("beta", grid, program_b, stream=Stream(name="sb"))
        with pytest.raises(DeadlockError) as excinfo:
            GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model).run(
                [kernel_a, kernel_b]
            )
        error = excinfo.value
        assert error.cycle is not None
        cycle_kernels = {name.split("[")[0] for name in error.cycle}
        assert cycle_kernels == {"alpha", "beta"}
        assert "cycle" in str(error).lower()

    def test_launch_order_deadlock_has_no_false_cycle(self, small_arch, small_cost_model):
        # Consumer-before-producer deadlocks by slot exhaustion, not by a
        # circular wait: forensics must not invent a cycle.
        memory = GlobalMemory()
        grid = Dim3(4, 2, 1)
        producer, consumer = _dependent_pair(grid, 10.0, memory)
        with pytest.raises(DeadlockError) as excinfo:
            GpuSimulator(small_arch, memory=memory, cost_model=small_cost_model).run(
                [consumer, producer]
            )
        assert excinfo.value.cycle is None


class TestLivelockWatchdog:
    def test_max_events_guard_raises_structured_error(self, small_arch, small_cost_model):
        stream = Stream(name="s")
        kernel = simple_kernel("k", Dim3(64, 1, 1), 1.0, stream=stream)
        with pytest.raises(LivelockError) as excinfo:
            GpuSimulator(small_arch, cost_model=small_cost_model, max_events=10).run([kernel])
        error = excinfo.value
        assert error.guard == "max_events"
        assert error.limit == 10
        assert error.events_processed > 10
        assert error.total_blocks == 64
        assert error.completed_blocks < 64

    def test_max_sim_time_guard_raises_structured_error(self, small_arch, small_cost_model):
        stream = Stream(name="s")
        kernel = simple_kernel("k", Dim3(64, 1, 1), 10.0, stream=stream)
        with pytest.raises(LivelockError) as excinfo:
            GpuSimulator(
                small_arch, cost_model=small_cost_model, max_sim_time_us=15.0
            ).run([kernel])
        error = excinfo.value
        assert error.guard == "max_sim_time_us"
        assert error.limit == 15.0
        assert error.simulated_time_us > 15.0

    def test_invalid_watchdog_limits_rejected(self, small_arch, small_cost_model):
        with pytest.raises(SimulationError):
            GpuSimulator(small_arch, cost_model=small_cost_model, max_sim_time_us=0.0)
        with pytest.raises(SimulationError):
            GpuSimulator(small_arch, cost_model=small_cost_model, max_events=0)

    @pytest.mark.parametrize("guard", ["max_events", "max_sim_time_us"])
    def test_nan_watchdog_limits_rejected(self, small_arch, small_cost_model, guard):
        """A NaN limit fails every comparison, so it would never trip."""
        with pytest.raises(SimulationError, match=f"{guard} must be positive, got nan"):
            GpuSimulator(small_arch, cost_model=small_cost_model, **{guard: float("nan")})

    def test_generous_limits_do_not_trip(self, small_arch, small_cost_model):
        stream = Stream(name="s")
        kernel = simple_kernel("k", Dim3(8, 1, 1), 10.0, stream=stream)
        result = GpuSimulator(
            small_arch,
            cost_model=small_cost_model,
            max_events=100_000,
            max_sim_time_us=1e9,
        ).run([kernel])
        assert result.total_time_us == pytest.approx(10.0, abs=1e-6)


class TestChaosAcceptance:
    """The PR's acceptance criterion, pinned as a test."""

    POLICIES = ("TileSync", "RowSync", "StridedTileSync")
    ARCHES = ("V100", "A100")

    def _plan(self, num_points):
        # Seed 6 faults half the grid with a mix of crash / error /
        # corrupt_result on attempt 0; one extra fault exhausts every
        # attempt so the structured-failure path is exercised too.
        seeded = FaultPlan.seeded(num_points, seed=6, crash=0.15, error=0.2, corrupt_result=0.15)
        exhausted_point = next(
            point for point in range(num_points) if point not in seeded.fault_points
        )
        return FaultPlan(
            list(seeded.faults)
            + [FaultSpec(kind="error", point=exhausted_point, attempts=(0, 1, 2))],
            seed=6,
        ), exhausted_point

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_chaos_sweep_every_point_accounted_for(self, mode):
        graph = GptMlp(config=TINY, batch_seq=96).to_graph()
        num_points = len(self.POLICIES) * len(self.ARCHES)
        plan, exhausted_point = self._plan(num_points)
        assert plan.fault_fraction(num_points) >= 0.2  # the criterion's floor

        baseline = Session(sweep_cache=False).sweep(
            graph, policies=self.POLICIES, arches=self.ARCHES, mode="serial"
        )

        session = Session()  # caching on: the poisoning check is part of the criterion
        with inject_faults(plan):
            results = session.sweep(
                graph,
                policies=self.POLICIES,
                arches=self.ARCHES,
                mode=mode,
                on_error="collect",
                retries=2,
            )

        assert len(results) == num_points
        failures = []
        for position, (result, reference) in enumerate(zip(results, baseline)):
            if isinstance(result, SweepFailure):
                failures.append(position)
                assert result.attempts >= 1
                assert result.error_type
                continue
            # Recovered points are bit-identical to the fault-free sweep.
            assert isinstance(result, SweepResult)
            assert result.total_time_us == reference.total_time_us
            assert result.total_wait_time_us == reference.total_wait_time_us
            assert result.kernel_durations_us == reference.kernel_durations_us
        # Only the deliberately exhausted point may fail; every transient
        # fault (attempt 0 only, retries=2) must have recovered.
        assert failures == [exhausted_point]

        # Zero poisoned cache entries: every cached value is finite, and a
        # fault-free re-sweep replays bit-identically.
        assert session.sweep_cache_size == num_points - 1
        for cached in session._sweep_cache.values():
            assert math.isfinite(cached.total_time_us)
        replay = session.sweep(
            graph, policies=self.POLICIES, arches=self.ARCHES, mode="serial"
        )
        assert [r.total_time_us for r in replay] == [r.total_time_us for r in baseline]
        assert all(
            result.cached == (position != exhausted_point)
            for position, result in enumerate(replay)
        )
        assert session.sweep_cache_size == num_points
