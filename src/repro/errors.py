"""Exception hierarchy for the cuSync reproduction.

All library-specific failures derive from :class:`ReproError` so callers can
catch everything the library raises with a single except clause while still
being able to distinguish simulator deadlocks from DSL compile errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class SimulationError(ReproError):
    """A failure inside the GPU simulator (inconsistent state, bad launch)."""


@dataclass(frozen=True)
class SemaphoreWaiter:
    """One blocked semaphore wait at the moment a deadlock was detected.

    A forensic record: which block was stuck, which semaphore it was
    polling, the threshold it needed and the value the semaphore actually
    held.  ``deficit`` is the nearest-miss delta — a deficit of 1 usually
    means an off-by-one in the policy's expected-value computation, while a
    huge deficit points at a producer that never ran at all.
    """

    #: Human-readable name of the blocked thread block.
    block: str
    #: Semaphore array the block is polling.
    array: str
    #: Index within the array.
    index: int
    #: Threshold the wait requires the semaphore to reach.
    required: int
    #: Value the semaphore actually held when the deadlock was detected.
    observed: int

    @property
    def deficit(self) -> int:
        """How far the semaphore was from satisfying the wait."""
        return self.required - self.observed

    def describe(self) -> str:
        return (
            f"{self.block} waits {self.array}[{self.index}] >= {self.required} "
            f"(observed {self.observed}, short by {self.deficit})"
        )


class DeadlockError(SimulationError):
    """The simulated GPU cannot make progress.

    Raised when every occupied SM slot is busy-waiting on a semaphore that no
    runnable thread block will ever post — exactly the failure mode the
    paper's wait-kernel mechanism exists to prevent (Section III-B).

    Beyond the stuck block names (:attr:`waiting_blocks`), the simulator
    attaches wait-graph forensics: one :class:`SemaphoreWaiter` per blocked
    threshold (:attr:`waiters`, with observed values and nearest-miss
    deltas) and, when the blocked blocks wait on each other's future posts,
    the dependency cycle (:attr:`cycle`).
    """

    def __init__(
        self,
        message: str,
        waiting_blocks=None,
        waiters: Optional[Sequence[SemaphoreWaiter]] = None,
        cycle: Optional[Sequence[str]] = None,
    ):
        super().__init__(message)
        #: Descriptions of the blocks that were stuck when the deadlock was
        #: detected, useful for debugging synchronization policies.
        self.waiting_blocks = list(waiting_blocks or [])
        #: Per-waiter forensics: blocked thresholds with observed values.
        self.waiters: List[SemaphoreWaiter] = list(waiters or [])
        #: Block names forming a wait cycle (block *i* waits on a semaphore
        #: only block *i+1* could still post), or ``None`` when the deadlock
        #: is not cyclic (e.g. the producer kernel was never launched).
        self.cycle: Optional[List[str]] = list(cycle) if cycle else None

    def report(self) -> str:
        """Multi-line forensic report of every blocked waiter."""
        lines = [str(self)]
        for waiter in self.waiters:
            lines.append("  " + waiter.describe())
        if self.cycle:
            lines.append("  dependency cycle: " + " -> ".join(self.cycle + [self.cycle[0]]))
        return "\n".join(lines)


class LivelockError(SimulationError):
    """The simulation ran past a watchdog limit without completing.

    Unlike a :class:`DeadlockError` (no runnable work at all), a livelock
    keeps producing events without finishing blocks — e.g. a custom policy
    re-posting in a loop.  The watchdog trips on either the event-count
    guard (``max_events``) or the simulated-time guard (``max_sim_time_us``)
    and records where the run stood.
    """

    def __init__(
        self,
        message: str,
        guard: str = "max_events",
        events_processed: int = 0,
        simulated_time_us: float = 0.0,
        completed_blocks: int = 0,
        total_blocks: int = 0,
        limit: float = 0.0,
    ):
        super().__init__(message)
        #: Which guard tripped: ``"max_events"`` or ``"max_sim_time_us"``.
        self.guard = guard
        self.events_processed = events_processed
        self.simulated_time_us = simulated_time_us
        self.completed_blocks = completed_blocks
        self.total_blocks = total_blocks
        self.limit = limit


class SweepPointError(SimulationError):
    """A sweep point failed in a worker and the original exception could
    not be transported back (e.g. an unpicklable exception type raised in a
    worker process).  The original traceback text is preserved verbatim in
    :attr:`traceback_text` and included in the message, so the failure is
    debuggable without re-running the point in-process.
    """

    def __init__(
        self,
        message: str,
        point_label: str = "",
        attempts: int = 1,
        error_type: str = "",
        traceback_text: str = "",
    ):
        if traceback_text:
            message = f"{message}\n--- original traceback ---\n{traceback_text.rstrip()}"
        super().__init__(message)
        self.point_label = point_label
        self.attempts = attempts
        self.error_type = error_type
        self.traceback_text = traceback_text


class FaultInjectionError(ReproError):
    """Base class for failures raised *by* injected faults (chaos testing).

    These never occur outside an active
    :class:`~repro.testing.faults.FaultPlan`; the sweep layer treats them
    like any other point failure (retry, collect, or raise).
    """


class InjectedFaultError(FaultInjectionError):
    """An ``error`` fault fired: the evaluation raised deterministically."""


class InjectedCrashError(FaultInjectionError):
    """A ``crash`` fault fired outside a worker process.

    In ``mode="process"`` a crash fault kills the worker with ``os._exit``
    (producing a ``BrokenProcessPool``); in serial mode the process cannot
    be sacrificed, so the crash degrades to this exception.
    """


class SynchronizationError(ReproError):
    """A synchronization policy or dependency declaration is inconsistent."""


class GraphValidationError(ReproError):
    """A declarative :class:`~repro.pipeline.PipelineGraph` is malformed.

    Raised at graph *construction* time — duplicate stage names, edges that
    reference unknown stages (dangling edges), edges whose tensor is not
    produced by their producer stage, and dependency cycles are all rejected
    before any executor sees the graph.
    """


class DataRaceError(SynchronizationError):
    """A consumer tile read data before its producer tile posted.

    Only detectable in functional simulation mode, where kernels track which
    tiles of each tensor have actually been written.
    """


class DslError(ReproError):
    """Base class for errors raised by the cuSyncGen DSL front end."""


class DslBoundsError(DslError):
    """A dependency references a producer tile outside the producer grid."""


class CodegenError(ReproError):
    """The policy / tile-order generator could not handle a dependence."""


class ModelConfigError(ReproError):
    """An ML model configuration is inconsistent (shapes, parallelism)."""


class TuningError(ReproError):
    """An autotuning request is inconsistent or incomplete.

    Raised by :mod:`repro.tune` for malformed search spaces (empty axes,
    duplicate tile labels), malformed tuned-config tables, and report
    queries the tuning run never measured — e.g.
    :meth:`~repro.tune.tuner.TuneReport.baseline_for` an arch that was
    not part of the search.
    """


class ServingError(ReproError):
    """A serving scenario is inconsistent (arrivals, budgets, admission).

    Raised by :mod:`repro.serving` when a traffic description cannot be
    realized: non-positive rates or token counts, an unsorted replay
    trace, or a request whose KV footprint exceeds the batcher's budget
    and therefore could never be admitted.
    """


class ServingStallError(ServingError):
    """The serving loop ran past a watchdog limit without resolving every
    request.

    The serving analogue of :class:`LivelockError`: instead of spinning
    until the heat death of the universe (an overloaded scenario under the
    ``"none"`` shedding policy grows its queue without bound), the
    :class:`~repro.serving.ServingSimulator` watchdogs trip on either the
    iteration-count guard (``max_iterations``) or the simulated-time guard
    (``max_sim_time_us``) and attach queue forensics: how deep the
    admission queue was, which request had been waiting longest and for
    how long, and how much KV budget the running batch held when the loop
    was declared stalled.
    """

    def __init__(
        self,
        message: str,
        guard: str = "max_iterations",
        iterations: int = 0,
        simulated_time_us: float = 0.0,
        completed: int = 0,
        shed: int = 0,
        total_requests: int = 0,
        queue_depth: int = 0,
        running: int = 0,
        kv_reserved: int = 0,
        oldest_request_id: Optional[int] = None,
        oldest_waited_us: float = 0.0,
        limit: float = 0.0,
    ):
        super().__init__(message)
        #: Which guard tripped: ``"max_iterations"`` or ``"max_sim_time_us"``.
        self.guard = guard
        self.iterations = iterations
        self.simulated_time_us = simulated_time_us
        self.completed = completed
        self.shed = shed
        self.total_requests = total_requests
        #: Admission-queue depth at the moment the watchdog tripped.
        self.queue_depth = queue_depth
        #: Sequences running in the batch when the watchdog tripped.
        self.running = running
        #: KV tokens reserved by the running batch.
        self.kv_reserved = kv_reserved
        #: The longest-waiting queued request (``None`` for an empty queue).
        self.oldest_request_id = oldest_request_id
        self.oldest_waited_us = oldest_waited_us
        self.limit = limit

    def report(self) -> str:
        """Multi-line forensic report of the stalled serving loop."""
        lines = [
            str(self),
            f"  guard: {self.guard} (limit {self.limit})",
            f"  iterations: {self.iterations}, simulated {self.simulated_time_us:.1f}us",
            f"  resolved: {self.completed} completed + {self.shed} shed "
            f"of {self.total_requests}",
            f"  queue depth: {self.queue_depth}, running: {self.running}, "
            f"kv reserved: {self.kv_reserved}",
        ]
        if self.oldest_request_id is not None:
            lines.append(
                f"  oldest queued request: {self.oldest_request_id} "
                f"(waited {self.oldest_waited_us:.1f}us)"
            )
        return "\n".join(lines)
