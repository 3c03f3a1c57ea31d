"""Fault-tolerant sweep semantics: retries, timeouts, ``on_error`` modes,
and exception propagation across both execution modes.

The invariants pinned here:

* a point that fails transiently and is retried produces a result
  bit-identical to a fault-free sweep;
* an exhausted point surfaces per ``on_error`` — re-raised original
  exception, structured :class:`SweepFailure`, or dropped;
* a raising cost model surfaces its *original* traceback from worker
  processes, never a pickling error;
* a failing point is never written to the sweep-result cache.
"""

import pytest

from repro.errors import (
    InjectedCrashError,
    InjectedFaultError,
    SimulationError,
    SweepPointError,
)
from repro.gpu.arch import TESLA_V100
from repro.gpu.costmodel import CostModel
from repro.models import GptMlp, TransformerConfig
from repro.pipeline import Session, SweepFailure, SweepPoint, SweepResult
from repro.pipeline.session import _backoff_delay
from repro.testing import FaultPlan, FaultSpec, inject_faults

TINY = TransformerConfig(name="tiny", hidden=256, layers=2, tensor_parallel=8)
POLICIES = ("TileSync", "RowSync", "StridedTileSync")
MODES = ("serial", "process")


class ExplodingCostModel(CostModel):
    """Raises mid-simulation, the way a buggy user cost model would."""

    def block_duration_factors(self, kernel_name, count):
        raise ValueError(f"exploding cost model: {kernel_name}")


class UnpicklableError(Exception):
    """An exception that cannot cross a process boundary (callable arg)."""

    def __init__(self, message):
        super().__init__(message, lambda: None)


class UnpicklableCostModel(CostModel):
    def block_duration_factors(self, kernel_name, count):
        raise UnpicklableError(f"unpicklable failure in {kernel_name}")


@pytest.fixture(scope="module")
def graph():
    return GptMlp(config=TINY, batch_seq=96).to_graph()


@pytest.fixture(scope="module")
def baseline(graph):
    return Session(sweep_cache=False).sweep(graph, policies=POLICIES, mode="serial")


def _times(results):
    return [result.total_time_us for result in results]


class TestArgumentValidation:
    def test_unknown_on_error_rejected(self, graph):
        with pytest.raises(SimulationError, match="on_error"):
            Session().sweep(graph, policies=POLICIES, on_error="explode")

    def test_negative_retries_rejected(self, graph):
        with pytest.raises(SimulationError, match="retries"):
            Session().sweep(graph, policies=POLICIES, retries=-1)

    @pytest.mark.parametrize("timeout", [0.0, float("nan"), float("inf")])
    def test_non_positive_timeout_rejected(self, graph, timeout):
        with pytest.raises(SimulationError, match="timeout"):
            Session().sweep(graph, policies=POLICIES, timeout=timeout)

    @pytest.mark.parametrize("backoff", [float("nan"), float("inf"), -1.0])
    def test_invalid_backoff_rejected(self, graph, backoff):
        with pytest.raises(SimulationError, match="backoff"):
            Session().sweep(graph, policies=POLICIES, backoff=backoff)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_workers_rejected(self, graph, workers):
        with pytest.raises(SimulationError, match="workers"):
            Session().sweep(graph, policies=POLICIES, workers=workers)


@pytest.mark.parametrize("mode", MODES)
class TestExceptionPropagation:
    """Satellite: the original exception — not a pickling artifact —
    must surface from every execution mode."""

    def test_raise_mode_surfaces_original_exception(self, graph, mode):
        session = Session(cost_model=ExplodingCostModel(arch=TESLA_V100), sweep_cache=False)
        with pytest.raises(ValueError, match="exploding cost model") as excinfo:
            session.sweep(graph, policies=POLICIES, mode=mode)
        if mode == "process":
            # The exception crossed a process boundary; the worker's
            # formatted traceback rides along as an exception note.
            notes = getattr(excinfo.value, "__notes__", [])
            assert any("worker traceback" in note for note in notes)
            assert any("block_duration_factors" in note for note in notes)

    def test_unpicklable_exception_is_not_a_pickling_error(self, graph, mode):
        session = Session(cost_model=UnpicklableCostModel(arch=TESLA_V100), sweep_cache=False)
        with pytest.raises((UnpicklableError, SweepPointError)) as excinfo:
            session.sweep(graph, policies=POLICIES, mode=mode)
        if mode == "process":
            # The exception object cannot be transported, but the original
            # traceback text must be — never an opaque PicklingError.
            error = excinfo.value
            assert isinstance(error, SweepPointError)
            assert "unpicklable failure" in error.traceback_text
            assert "block_duration_factors" in error.traceback_text
            assert "PicklingError" not in str(error)

    def test_collect_mode_carries_traceback(self, graph, mode):
        session = Session(cost_model=ExplodingCostModel(arch=TESLA_V100), sweep_cache=False)
        results = session.sweep(graph, policies=POLICIES, mode=mode, on_error="collect")
        assert len(results) == len(POLICIES)
        for failure in results:
            assert isinstance(failure, SweepFailure)
            assert not failure.ok
            assert failure.error_type == "ValueError"
            assert "exploding cost model" in failure.error
            assert "block_duration_factors" in failure.traceback
            assert failure.attempts == 1

    def test_skip_mode_drops_failed_points(self, graph, mode):
        plan = FaultPlan([FaultSpec(kind="error", point=1)])
        session = Session(sweep_cache=False)
        with inject_faults(plan):
            results = session.sweep(graph, policies=POLICIES, mode=mode, on_error="skip")
        assert len(results) == len(POLICIES) - 1
        assert all(isinstance(result, SweepResult) for result in results)


@pytest.mark.parametrize("mode", MODES)
class TestRetries:
    def test_transient_fault_recovers_bit_identical(self, graph, baseline, mode):
        plan = FaultPlan([FaultSpec(kind="error", point=1)])  # attempt 0 only
        session = Session(sweep_cache=False)
        with inject_faults(plan):
            results = session.sweep(
                graph, policies=POLICIES, mode=mode, retries=1, on_error="collect"
            )
        assert all(isinstance(result, SweepResult) for result in results)
        assert _times(results) == _times(baseline)

    def test_persistent_fault_exhausts_attempts(self, graph, mode):
        plan = FaultPlan([FaultSpec(kind="error", point=0, attempts=(0, 1, 2))])
        session = Session(sweep_cache=False)
        with inject_faults(plan):
            results = session.sweep(
                graph, policies=POLICIES, mode=mode, retries=2, on_error="collect"
            )
        failure = results[0]
        assert isinstance(failure, SweepFailure)
        assert failure.attempts == 3
        assert failure.error_type == "InjectedFaultError"
        assert all(isinstance(result, SweepResult) for result in results[1:])


class TestBackoff:
    def test_backoff_is_deterministic(self):
        assert _backoff_delay(0.05, 3, 1) == _backoff_delay(0.05, 3, 1)
        assert _backoff_delay(0.05, 3, 1) != _backoff_delay(0.05, 4, 1)

    def test_backoff_grows_exponentially(self):
        base = _backoff_delay(0.1, 7, 1)
        later = _backoff_delay(0.1, 7, 4)
        # Attempt 4 scales by 2**3; jitter spans [0.5, 1.5), so even the
        # smallest attempt-4 delay beats the largest attempt-1 delay.
        assert later > base
        assert 0.05 <= base < 0.15
        assert 0.4 <= later < 1.2

    def test_no_backoff_before_first_retry(self):
        assert _backoff_delay(0.05, 0, 0) == 0.0
        assert _backoff_delay(0.0, 5, 3) == 0.0


class TestTimeout:
    def test_cooperative_timeout_discards_late_result(self, graph):
        plan = FaultPlan([FaultSpec(kind="hang", point=0, hang_seconds=0.3)])
        session = Session(sweep_cache=False)
        with inject_faults(plan):
            results = session.sweep(
                graph,
                policies=POLICIES,
                mode="serial",
                timeout=0.05,
                on_error="collect",
            )
        failure = results[0]
        assert isinstance(failure, SweepFailure)
        assert failure.error_type == "TimeoutError"
        assert "discarded" in failure.error

    def test_process_timeout_kills_worker_and_recovers(self, graph, baseline):
        # The hang is far longer than the timeout, so only a worker kill —
        # not patience — can complete this sweep; the retry (attempt 1,
        # fault fires on attempt 0 only) then recovers the true result.
        plan = FaultPlan([FaultSpec(kind="hang", point=2, hang_seconds=30.0)])
        session = Session(sweep_cache=False)
        with inject_faults(plan):
            results = session.sweep(
                graph,
                policies=POLICIES,
                mode="process",
                timeout=1.0,
                retries=1,
                on_error="collect",
            )
        assert all(isinstance(result, SweepResult) for result in results)
        assert _times(results) == _times(baseline)

    def test_process_timeout_exhaustion_reports_timeout(self, graph):
        plan = FaultPlan(
            [FaultSpec(kind="hang", point=0, hang_seconds=30.0, attempts=(0, 1))]
        )
        session = Session(sweep_cache=False)
        with inject_faults(plan):
            results = session.sweep(
                graph,
                policies=POLICIES,
                mode="process",
                timeout=0.75,
                retries=1,
                on_error="collect",
            )
        failure = results[0]
        assert isinstance(failure, SweepFailure)
        assert failure.error_type == "TimeoutError"
        assert failure.attempts == 2
        assert all(isinstance(result, SweepResult) for result in results[1:])


class TestCrashRecovery:
    def test_worker_crash_respawns_pool_and_recovers(self, graph, baseline):
        plan = FaultPlan([FaultSpec(kind="crash", point=0)])
        session = Session(sweep_cache=False)
        with inject_faults(plan):
            results = session.sweep(
                graph, policies=POLICIES, mode="process", retries=2, on_error="collect"
            )
        assert all(isinstance(result, SweepResult) for result in results)
        assert _times(results) == _times(baseline)

    def test_serial_crash_degrades_to_exception(self, graph):
        plan = FaultPlan([FaultSpec(kind="crash", point=0)])
        session = Session(sweep_cache=False)
        with inject_faults(plan):
            with pytest.raises(InjectedCrashError):
                session.sweep(graph, policies=POLICIES, mode="serial")

    def test_crash_without_retries_is_a_structured_failure(self, graph):
        plan = FaultPlan([FaultSpec(kind="crash", point=1)])
        session = Session(sweep_cache=False)
        with inject_faults(plan):
            results = session.sweep(
                graph, policies=POLICIES, mode="process", on_error="collect"
            )
        failure = results[1]
        assert isinstance(failure, SweepFailure)
        assert "worker process died" in failure.error


class TestCacheNeverPoisoned:
    """Satellite: a point whose simulation raised must never be cached."""

    def test_failed_point_not_cached_and_resimulates(self, graph, baseline):
        session = Session()
        plan = FaultPlan([FaultSpec(kind="error", point=1)])
        with inject_faults(plan):
            first = session.sweep(graph, policies=POLICIES, mode="serial", on_error="collect")
        assert isinstance(first[1], SweepFailure)
        assert session.sweep_cache_size == len(POLICIES) - 1

        # The fault-free re-sweep replays the healthy points and
        # re-simulates — not replays — the failed one.
        second = session.sweep(graph, policies=POLICIES, mode="serial")
        assert all(isinstance(result, SweepResult) for result in second)
        assert _times(second) == _times(baseline)
        assert second[0].cached and second[2].cached
        assert not second[1].cached
        assert session.sweep_cache_size == len(POLICIES)

    def test_corrupt_result_rejected_and_not_cached(self, graph):
        session = Session()
        plan = FaultPlan([FaultSpec(kind="corrupt_result", point=0)])
        with inject_faults(plan):
            results = session.sweep(
                graph, policies=POLICIES, mode="serial", on_error="collect"
            )
        failure = results[0]
        assert isinstance(failure, SweepFailure)
        assert failure.error_type == "SimulationError"
        assert "corrupt" in failure.error
        assert session.sweep_cache_size == len(POLICIES) - 1
        for cached in session._sweep_cache.values():
            assert cached.total_time_us == cached.total_time_us  # no NaN

    def test_raise_mode_abort_leaves_cache_empty(self, graph):
        session = Session(cost_model=ExplodingCostModel(arch=TESLA_V100))
        with pytest.raises(ValueError):
            session.sweep(graph, policies=POLICIES, mode="serial")
        assert session.sweep_cache_size == 0

    def test_duplicate_of_failed_point_shares_its_failure(self, graph):
        point = SweepPoint(scheme="cusync", policy="TileSync", arch=TESLA_V100)
        twin = SweepPoint(scheme="cusync", policy="TileSync", arch=TESLA_V100)
        session = Session()
        plan = FaultPlan([FaultSpec(kind="error", point=0)])
        with inject_faults(plan):
            results = session.sweep(
                [(graph, point), (graph, twin)], mode="serial", on_error="collect"
            )
        assert len(results) == 2
        assert all(isinstance(result, SweepFailure) for result in results)
        assert session.sweep_cache_size == 0
