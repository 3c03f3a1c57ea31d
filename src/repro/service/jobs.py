"""Asyncio sweep service: job submission, coalescing and result streaming.

A :class:`SweepService` front-ends one :class:`~repro.pipeline.Session`
for any number of concurrent async clients.  Each submitted
``(graph, point)`` pair resolves through three tiers, cheapest first:

1. **Memory** — the session's in-memory sweep cache (a synchronous probe
   on the event loop; replays are free).
2. **Store** — the content-addressed disk store, when the service has one
   and the point has a portable key (read off-loop in a worker thread).
3. **Simulation** — the session's existing sweep machinery via a
   :class:`SessionWorker` (``Session.sweep`` with ``cache=False``), which
   carries the timeout / retry / backoff / structured-failure semantics
   unchanged.

The coalescing invariant: while a point is resolving, its trace key is
parked in an in-flight table, and every other submission of an equal
point — same job, another job, another client — awaits that one
resolution instead of starting its own.  **Each novel point simulates
exactly once**, no matter how many clients race on it.  Registration is
synchronous with the tier checks (the event loop never yields between
"not in flight" and "now in flight"), which is what makes the invariant
airtight.  Failures propagate to every coalesced waiter but are never
written to the store or the memory cache, so the next submission after
the in-flight entry clears re-simulates fresh.

Results stream per point as they land (:meth:`SweepJob.stream`) or
collect position-aligned with the work list (:meth:`SweepJob.results`).
Every outcome says where its result came from (``"memory"``,
``"store"``, ``"coalesced"``, ``"simulated"``, ``"cancelled"``) so tests
and benchmarks can assert dedup ratios exactly.

Cancellation is *graceful*: resolution of a novel point runs in a
detached service-owned task, so :meth:`SweepJob.cancel` (or a per-job
``timeout_s``) releases that job's waiters with a structured
:class:`JobCancelled` outcome while the in-flight future keeps resolving
for every other job coalesced on the same point — cancelling one client
never poisons another's result.
"""

from __future__ import annotations

import asyncio
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import (
    AsyncIterator,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import SimulationError
from repro.pipeline.graph import PipelineGraph
from repro.pipeline.session import (
    Session,
    SweepFailure,
    SweepPoint,
    SweepResult,
    graph_labels,
)

from .store import ResultStore

__all__ = [
    "JobCancelled",
    "PointOutcome",
    "SessionWorker",
    "SweepJob",
    "SweepService",
]

#: One submitted work item.
WorkItem = Tuple[PipelineGraph, SweepPoint]


@dataclass(frozen=True)
class JobCancelled:
    """A point released without a result: its job was cancelled or timed out.

    The job-level analogue of
    :class:`~repro.pipeline.session.SweepFailure` — a structured value in
    the results list, not an exception.  ``reason`` is ``"cancelled"``
    (explicit :meth:`SweepJob.cancel`) or ``"timeout"`` (the job's
    ``timeout_s`` elapsed).  Only the *waiting* is abandoned: an
    in-flight resolution keeps running for other jobs coalesced on the
    same point.
    """

    point: SweepPoint
    graph_label: str
    reason: str
    #: How long the point waited before being released (wall seconds;
    #: excluded from comparisons, like SweepFailure's elapsed_s).
    waited_s: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return False

    def describe(self) -> str:
        return (
            f"{self.graph_label}/{self.point.scheme}: released after "
            f"{self.waited_s:.3f}s ({self.reason})"
        )


@dataclass(frozen=True)
class PointOutcome:
    """One resolved point of a job: the result plus where it came from."""

    #: Position of the point in the job's work list.
    position: int
    #: Stable label of the point's graph within the job.
    graph_label: str
    point: SweepPoint
    result: Union[SweepResult, SweepFailure, JobCancelled]
    #: ``"memory"`` / ``"store"`` / ``"coalesced"`` / ``"simulated"`` /
    #: ``"cancelled"``.
    source: str

    @property
    def ok(self) -> bool:
        return self.result.ok


class SweepJob:
    """Handle for one submitted work list.

    Consume it either as a stream (:meth:`stream`, outcomes in completion
    order) or as a batch (:meth:`results` / :meth:`outcomes`,
    position-aligned with the submitted work list).  Both may be used on
    the same job; tasks resolve once.
    """

    def __init__(
        self,
        tasks: Sequence["asyncio.Task[PointOutcome]"],
        cancel_event: Optional["asyncio.Event"] = None,
    ) -> None:
        self._tasks = list(tasks)
        self._cancel_event = cancel_event if cancel_event is not None else asyncio.Event()

    def __len__(self) -> int:
        return len(self._tasks)

    @property
    def done(self) -> bool:
        return all(task.done() for task in self._tasks)

    @property
    def cancelled(self) -> bool:
        return self._cancel_event.is_set()

    async def stream(self) -> AsyncIterator[PointOutcome]:
        """Yield each :class:`PointOutcome` as soon as it resolves."""
        for task in asyncio.as_completed(list(self._tasks)):
            yield await task

    async def outcomes(self) -> List[PointOutcome]:
        """Every outcome, ordered by work-list position."""
        resolved = await asyncio.gather(*self._tasks)
        return sorted(resolved, key=lambda outcome: outcome.position)

    async def results(self) -> List[Union[SweepResult, SweepFailure, JobCancelled]]:
        """The results alone, position-aligned with the work list."""
        return [outcome.result for outcome in await self.outcomes()]

    def cancel(self) -> None:
        """Release this job's unresolved points as :class:`JobCancelled`.

        Graceful: already-resolved points keep their results, and any
        simulation the service started on this job's behalf runs to
        completion for the benefit of other (coalesced) jobs — only the
        waiting stops.
        """
        self._cancel_event.set()


class SessionWorker:
    """Evaluates single points through the session's existing sweep machinery.

    Each call runs ``Session.sweep([(graph, point)], cache=False,
    on_error="collect", ...)``, so the fault-tolerance contract —
    per-attempt timeouts, retries with deterministic backoff, structured
    :class:`~repro.pipeline.session.SweepFailure` values instead of
    raises — is inherited wholesale rather than reimplemented.  ``mode``
    is forwarded: the default ``"serial"`` evaluates in-process,
    ``"process"`` in the existing process-pool path (worker-kill timeouts
    included).

    Calls are thread-safe: the service evaluates points on its thread
    pool, and concurrent evaluations of points sharing a graph serialize
    on a per-graph lock, because an evaluation re-binds that graph's
    kernels.  ``calls`` counts evaluations — the figure the coalescing
    acceptance tests assert on.
    """

    def __init__(
        self,
        session: Session,
        *,
        mode: str = "serial",
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.05,
    ) -> None:
        self.session = session
        self.mode = mode
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.calls = 0
        self._guard = threading.Lock()
        self._graph_locks: "weakref.WeakKeyDictionary[PipelineGraph, threading.Lock]" = (
            weakref.WeakKeyDictionary()
        )

    def _graph_lock(self, graph: PipelineGraph) -> threading.Lock:
        with self._guard:
            lock = self._graph_locks.get(graph)
            if lock is None:
                lock = threading.Lock()
                self._graph_locks[graph] = lock
            return lock

    def evaluate(self, graph: PipelineGraph, point: SweepPoint) -> Union[SweepResult, SweepFailure]:
        with self._guard:
            self.calls += 1
        with self._graph_lock(graph):
            results = self.session.sweep(
                [(graph, point)],
                mode=self.mode,
                workers=self.workers,
                cache=False,
                timeout=self.timeout,
                retries=self.retries,
                backoff=self.backoff,
                on_error="collect",
            )
        return results[0]


class SweepService:
    """Coalescing, store-backed sweep front for concurrent async clients.

    See the module docstring for the tier order and the coalescing
    invariant.  ``store`` and ``worker`` are duck-typed
    (:class:`~repro.service.store.ResultStore` /
    :class:`SessionWorker`-shaped); the fakes in
    :mod:`repro.service.fakes` slot straight in.  Store calls are
    best-effort — a store that raises is counted in ``store_errors`` and
    treated as a miss / dropped write, never as a failed point.

    One event loop at a time: in-flight futures belong to the running
    loop.  Blocking work (store IO, simulation) runs on a bounded thread
    pool (``max_parallel``); close the service (or use it as a context
    manager) to release the pool.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        store: Optional[ResultStore] = None,
        worker=None,
        *,
        mode: str = "serial",
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.05,
        max_parallel: int = 4,
    ) -> None:
        if max_parallel < 1:
            raise SimulationError(f"max_parallel must be at least 1, got {max_parallel}")
        self.session = session if session is not None else Session()
        self.store = store
        self.worker = (
            worker
            if worker is not None
            else SessionWorker(
                self.session,
                mode=mode,
                workers=workers,
                timeout=timeout,
                retries=retries,
                backoff=backoff,
            )
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max_parallel, thread_name_prefix="sweep-service"
        )
        self._inflight: Dict[Tuple, "asyncio.Future" ] = {}
        #: Detached resolution tasks (strong refs: they must outlive a
        #: cancelled job so coalesced waiters still get their result).
        self._resolvers: Set["asyncio.Task"] = set()
        self.points_submitted = 0
        self.memory_hits = 0
        self.store_hits = 0
        self.points_coalesced = 0
        self.points_simulated = 0
        self.points_cancelled = 0
        self.failures = 0
        self.store_errors = 0

    # ------------------------------------------------------------------
    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    def stats(self) -> Dict[str, int]:
        return {
            "points_submitted": self.points_submitted,
            "memory_hits": self.memory_hits,
            "store_hits": self.store_hits,
            "points_coalesced": self.points_coalesced,
            "points_simulated": self.points_simulated,
            "points_cancelled": self.points_cancelled,
            "failures": self.failures,
            "store_errors": self.store_errors,
        }

    async def drain(self) -> None:
        """Wait for every detached in-flight resolution to finish.

        Useful after cancelling a job: the abandoned resolutions keep
        running (by design), and draining them avoids tearing down the
        event loop underneath a pending task.
        """
        while self._resolvers:
            await asyncio.gather(*list(self._resolvers), return_exceptions=True)

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    async def submit(
        self, work: Iterable[WorkItem], *, timeout_s: Optional[float] = None
    ) -> SweepJob:
        """Start resolving every point of ``work``; returns immediately.

        ``work`` is an iterable of ``(PipelineGraph, SweepPoint)`` pairs
        (the shape :func:`~repro.pipeline.session.sweep_archs` /
        :func:`~repro.pipeline.session.sweep_policies` produce).

        ``timeout_s`` bounds the whole job: points still waiting when it
        elapses resolve as :class:`JobCancelled` (reason ``"timeout"``)
        instead of blocking forever on a slow or stuck resolution.  Like
        :meth:`SweepJob.cancel`, the timeout releases only this job's
        waiters — shared in-flight resolutions keep going.
        """
        if timeout_s is not None and timeout_s <= 0.0:
            raise SimulationError(f"timeout_s must be positive, got {timeout_s}")
        items: List[WorkItem] = []
        for item in work:
            graph, point = item
            if not isinstance(graph, PipelineGraph) or not isinstance(point, SweepPoint):
                raise SimulationError(
                    "SweepService.submit work items must be "
                    f"(PipelineGraph, SweepPoint) pairs, got {item!r}"
                )
            items.append((graph, point))
        labels = graph_labels(items)
        cancel_event = asyncio.Event()
        deadline = (
            None if timeout_s is None else asyncio.get_running_loop().time() + timeout_s
        )
        tasks = [
            asyncio.create_task(
                self._evaluate_point(
                    position, graph, point, labels[id(graph)], cancel_event, deadline
                )
            )
            for position, (graph, point) in enumerate(items)
        ]
        self.points_submitted += len(tasks)
        return SweepJob(tasks, cancel_event)

    async def sweep(
        self, work: Iterable[WorkItem], *, timeout_s: Optional[float] = None
    ) -> List[Union[SweepResult, SweepFailure, JobCancelled]]:
        """Submit ``work`` and await all results, position-aligned."""
        job = await self.submit(work, timeout_s=timeout_s)
        return await job.results()

    # ------------------------------------------------------------------
    async def _evaluate_point(
        self,
        position: int,
        graph: PipelineGraph,
        point: SweepPoint,
        label: str,
        cancel_event: "asyncio.Event",
        deadline: Optional[float],
    ) -> PointOutcome:
        loop = asyncio.get_running_loop()
        started = loop.time()

        def released(reason: str) -> PointOutcome:
            self.points_cancelled += 1
            cancelled = JobCancelled(
                point=point,
                graph_label=label,
                reason=reason,
                waited_s=loop.time() - started,
            )
            return self._outcome(position, point, label, cancelled, "cancelled")

        if cancel_event.is_set():
            return released("cancelled")
        key = self.session.sweep_trace_key(graph, point)
        coalesced = False
        if key is None:
            # Uncacheable point: nothing to coalesce on, straight to a
            # private fresh resolution (still detached, so a cancel or
            # timeout abandons the wait, not the evaluation).
            future = loop.create_future()
            self._spawn_resolver(None, future, graph, point)
        else:
            future = self._inflight.get(key)
            if future is not None:
                coalesced = True
                self.points_coalesced += 1
            else:
                hit = self.session.cached_sweep_result(graph, point)
                if hit is not None:
                    self.memory_hits += 1
                    return self._outcome(position, point, label, hit, "memory")
                # Novel point: park its key *before* the first await so
                # every concurrent equal submission lands on this future.
                # The resolver task owns the future's completion — a
                # cancelled waiter never poisons it for other jobs.
                future = loop.create_future()
                self._inflight[key] = future
                self._spawn_resolver(key, future, graph, point)
        status = await self._await_future(future, cancel_event, deadline)
        if status == "done":
            result, source = future.result()
            if coalesced:
                source = "coalesced"
            return self._outcome(position, point, label, result, source)
        return released(status)

    async def _await_future(
        self,
        future: "asyncio.Future",
        cancel_event: "asyncio.Event",
        deadline: Optional[float],
    ) -> str:
        """Wait on ``future`` guarded by the job's cancel event / deadline.

        Returns ``"done"``, ``"cancelled"`` or ``"timeout"``.  The future
        itself is never cancelled here — it belongs to the resolver.
        """
        loop = asyncio.get_running_loop()
        event_task = asyncio.ensure_future(cancel_event.wait())
        timeout = None if deadline is None else max(0.0, deadline - loop.time())
        try:
            done, _ = await asyncio.wait(
                {future, event_task},
                timeout=timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            if not event_task.done():
                event_task.cancel()
        if future in done:
            return "done"
        if event_task in done:
            return "cancelled"
        return "timeout"

    def _spawn_resolver(
        self,
        key: Optional[Tuple],
        future: "asyncio.Future",
        graph: PipelineGraph,
        point: SweepPoint,
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._resolve_into(key, future, graph, point)
        )
        self._resolvers.add(task)
        task.add_done_callback(self._resolvers.discard)

    async def _resolve_into(
        self,
        key: Optional[Tuple],
        future: "asyncio.Future",
        graph: PipelineGraph,
        point: SweepPoint,
    ) -> None:
        try:
            result, source = await self._resolve_fresh(graph, point)
        except BaseException as exc:
            if not future.done():
                if isinstance(exc, asyncio.CancelledError):
                    future.cancel()
                else:
                    future.set_exception(exc)
                    # Mark retrieved so a waiter-less failure does not log
                    # an "exception was never retrieved" warning.
                    future.exception()
            if isinstance(exc, asyncio.CancelledError):
                raise
        else:
            if not future.done():
                future.set_result((result, source))
        finally:
            if key is not None:
                self._inflight.pop(key, None)

    async def _resolve_fresh(
        self, graph: PipelineGraph, point: SweepPoint
    ) -> Tuple[Union[SweepResult, SweepFailure], str]:
        loop = asyncio.get_running_loop()
        store_key = (
            self.session.sweep_store_key(graph, point) if self.store is not None else None
        )
        if store_key is not None:
            stored = await loop.run_in_executor(self._executor, self._store_get, store_key)
            if stored is not None:
                self.store_hits += 1
                self.session.adopt_sweep_result(graph, point, stored)
                return stored, "store"
        result = await loop.run_in_executor(self._executor, self.worker.evaluate, graph, point)
        self.points_simulated += 1
        if isinstance(result, SweepResult):
            self.session.adopt_sweep_result(graph, point, result)
            if store_key is not None:
                await loop.run_in_executor(self._executor, self._store_put, store_key, result)
        elif isinstance(result, SweepFailure):
            # Failures surface to every waiter but are never persisted:
            # the next submission re-simulates instead of replaying them.
            self.failures += 1
        else:
            raise SimulationError(
                "worker.evaluate must return a SweepResult or SweepFailure, "
                f"got {type(result).__name__}"
            )
        return result, "simulated"

    def _store_get(self, key: Tuple) -> Optional[SweepResult]:
        try:
            result = self.store.get(key)
        except Exception:
            self.store_errors += 1
            return None
        return result if isinstance(result, SweepResult) else None

    def _store_put(self, key: Tuple, result: SweepResult) -> None:
        try:
            self.store.put(key, result)
        except Exception:
            self.store_errors += 1

    @staticmethod
    def _outcome(
        position: int,
        point: SweepPoint,
        label: str,
        result: Union[SweepResult, SweepFailure, JobCancelled],
        source: str,
    ) -> PointOutcome:
        # Replays and shared results carry the submission's own policy
        # spelling and graph label, exactly like Session.sweep cache hits.
        # JobCancelled values are already minted for this submission.
        if isinstance(result, SweepResult):
            result = replace(
                result,
                policy=point.policy,
                graph_label=label,
                cached=source != "simulated",
            )
        elif isinstance(result, SweepFailure):
            result = replace(result, point=point, graph_label=label)
        return PointOutcome(
            position=position,
            graph_label=label,
            point=point,
            result=result,
            source=source,
        )
