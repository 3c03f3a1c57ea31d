"""In-memory fakes of the service's store and worker interfaces.

Tests (and downstream experiments) use these to exercise
:class:`~repro.service.jobs.SweepService` without disk IO or real
simulation: :class:`FakeResultStore` is a dict behind the
:class:`~repro.service.store.ResultStore` interface with injectable
read/write faults, and :class:`FakeWorker` returns deterministic
synthetic results with optional latency (to widen coalescing race
windows) and injectable failures.  Both keep the call counters the
acceptance tests assert on.
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.pipeline.graph import PipelineGraph
from repro.pipeline.session import SweepFailure, SweepPoint, SweepResult

from ..store import ResultStore

__all__ = ["FakeResultStore", "FakeWorker"]


class FakeResultStore(ResultStore):
    """Dict-backed result store with injectable faults.

    Honours the :class:`~repro.service.store.ResultStore` contract —
    *except* when ``fail_reads`` / ``fail_writes`` are set, in which case
    the corresponding call raises ``RuntimeError``, which is exactly what
    the session's best-effort store steps are tested against.
    """

    def __init__(self, *, fail_reads: bool = False, fail_writes: bool = False) -> None:
        self._entries: Dict[Tuple, SweepResult] = {}
        self._lock = threading.Lock()
        self.fail_reads = fail_reads
        self.fail_writes = fail_writes
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt_entries = 0
        self.ignored_versions = 0
        self.rejected_writes = 0
        #: Every key ever asked for / written, in call order.
        self.get_log: List[Tuple] = []
        self.put_log: List[Tuple] = []

    def get(self, key: Tuple) -> Optional[SweepResult]:
        with self._lock:
            self.get_log.append(key)
            if self.fail_reads:
                raise RuntimeError("injected store read failure")
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                return None
            self.hits += 1
            return result

    def put(self, key: Tuple, result: SweepResult) -> bool:
        with self._lock:
            self.put_log.append(key)
            if self.fail_writes:
                raise RuntimeError("injected store write failure")
            if not isinstance(result, SweepResult):
                self.rejected_writes += 1
                return False
            self._entries[key] = result
            self.writes += 1
            return True

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> int:
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            return removed


def _synthetic_result(graph: PipelineGraph, point: SweepPoint) -> SweepResult:
    """A deterministic result derived only from the point's identity."""
    policy = point.policy
    if policy is not None and not isinstance(policy, str):
        label = getattr(policy, "label", None)
        policy = label() if callable(label) else repr(policy)
    identity = f"{graph.name}|{point.scheme}|{policy}|{point.arch}"
    base = float(zlib.crc32(identity.encode("utf-8")) % 10_000) + 1.0
    return SweepResult(
        scheme=point.scheme,
        policy=point.policy,
        arch_name=str(point.arch),
        total_time_us=base,
        total_wait_time_us=base / 8.0,
        kernel_durations_us=(("fake-kernel", base / 2.0),),
        graph_label=graph.name or "graph",
    )


class FakeWorker:
    """Canned worker mirroring :class:`~repro.service.jobs.SessionWorker`.

    ``delay_s`` sleeps inside each evaluation (evaluations run on the
    service's thread pool, so a delay holds points in flight long enough
    for concurrent submissions to coalesce onto them).  ``fail`` is a
    ``(graph, point) -> bool`` predicate; matching points return a
    structured :class:`~repro.pipeline.session.SweepFailure` instead of a
    result.  ``make_result`` overrides the synthetic result builder.
    ``calls`` / ``call_log`` count evaluations — the "each novel point
    simulates exactly once" assertions read them.
    """

    def __init__(
        self,
        *,
        delay_s: float = 0.0,
        fail: Optional[Callable[[PipelineGraph, SweepPoint], bool]] = None,
        make_result: Optional[
            Callable[[PipelineGraph, SweepPoint], Union[SweepResult, SweepFailure]]
        ] = None,
    ) -> None:
        self.delay_s = delay_s
        self.fail = fail
        self.make_result = make_result
        self.calls = 0
        self.call_log: List[Tuple[str, SweepPoint]] = []
        self._lock = threading.Lock()

    def evaluate(self, graph: PipelineGraph, point: SweepPoint) -> Union[SweepResult, SweepFailure]:
        with self._lock:
            self.calls += 1
            self.call_log.append((graph.name, point))
        if self.delay_s > 0:
            time.sleep(self.delay_s)
        if self.fail is not None and self.fail(graph, point):
            return SweepFailure(
                point=point,
                graph_label=graph.name or "graph",
                attempts=1,
                error_type="RuntimeError",
                error="RuntimeError('injected worker failure')",
            )
        if self.make_result is not None:
            return self.make_result(graph, point)
        return _synthetic_result(graph, point)
