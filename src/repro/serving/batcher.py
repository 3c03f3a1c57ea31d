"""Continuous batching: iteration-level scheduling of admitted requests.

The batcher implements Orca-style *continuous* (iteration-level)
batching: instead of forming one batch and running it to completion, the
scheduler re-plans every iteration — finished sequences are evicted
immediately, and waiting requests are admitted as soon as slots and KV
budget free up, joining the decode batch mid-flight.

Planning rules (all deterministic):

* **Prefill priority** — when any queued request is admissible, the next
  iteration is a prefill of the admissible queue head(s); running
  sequences wait one iteration.  This is the standard
  prefill-prioritized discipline: it minimizes time-to-first-token at a
  small cost to decode throughput.
* **FIFO, head-of-line** — admission scans the queue in arrival order
  and stops at the first request that does not fit (no reordering), so
  latency is fair and the plan sequence is a pure function of the
  arrival sequence.  The ``"priority"`` shedding policy replaces the
  arrival order with ``(priority desc, arrival, request_id)``.
* **Budgets** — a request is admitted only when (1) the batch has a free
  slot (``max_batch``), (2) its *final* KV footprint (prompt + every
  decode token) fits the remaining ``max_kv_tokens`` budget — reserved
  up front, so decode growth can never overflow the budget mid-flight —
  and (3) the prefill batch stays under ``max_prefill_tokens`` (a lone
  oversized prompt is always admissible by itself, otherwise it would
  starve).

A prefill iteration produces each admitted request's **first** output
token (its TTFT event); each decode iteration produces one further token
for every running sequence.

Overload resilience (all off by default — the defaults reproduce the
legacy queue-forever behavior bit for bit):

* **Shedding policies** (``shed_policy=``) turn silent infinite queueing
  into structured :class:`ShedRecord` outcomes:

  - ``"none"`` — the legacy discipline: unbounded queue, nothing is
    ever shed.
  - ``"reject-on-full"`` — a bounded queue (``max_queue``); a newcomer
    that finds the queue full is shed with reason ``"queue-full"``.
  - ``"shed-expired"`` — additionally drops queued requests whose
    ``deadline_us`` has passed (reason ``"deadline-expired"``) at
    enqueue and planning time; with ``max_queue`` set, newcomers are
    rejected once the (post-sweep) queue is still full.
  - ``"priority"`` — the superset policy: admission scans in priority
    order, expired requests are shed, and a full queue sheds the
    *lowest-priority* entry (the newcomer included) instead of the
    newest.

* **Preemption** (``preemption=True``) lets the head-of-line candidate
  evict strictly-lower-priority *running* sequences: the victim's KV is
  dropped, its reservation released, and the request re-queued with its
  generated-token count preserved — on re-admission the prefill
  recomputes ``prompt + generated`` rows (restart-with-recompute, the
  vLLM-style recompute path) and the sequence continues where it left
  off.  An anti-thrash guard (``min_preempt_gap``) blocks re-preempting
  the same request within that many iterations.  Every eviction is
  recorded as a :class:`PreemptionRecord`.

Everything remains a pure function of the enqueue/plan call sequence —
no RNG is involved, so runs replay bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.validation import check_positive
from repro.errors import ServingError
from repro.serving.arrivals import InferenceRequest

__all__ = [
    "BatchPlan",
    "ContinuousBatcher",
    "ShedRecord",
    "PreemptionRecord",
    "SHED_POLICIES",
]

#: Iteration phases.
PREFILL = "prefill"
DECODE = "decode"

#: Recognized shedding policies, in increasing order of aggressiveness.
SHED_POLICIES = ("none", "reject-on-full", "shed-expired", "priority")

#: Shed reasons.
QUEUE_FULL = "queue-full"
DEADLINE_EXPIRED = "deadline-expired"


@dataclass(frozen=True)
class BatchPlan:
    """One scheduled iteration: which requests run and what shape they make.

    ``rows`` is the flattened new-token count (the GEMM row dimension);
    ``keys`` is the deepest attended context of the batch *after* this
    iteration's token is produced (the KV depth the kernels see).
    """

    phase: str
    request_ids: Tuple[int, ...]
    rows: int
    keys: int


@dataclass(frozen=True)
class ShedRecord:
    """One load-shedding decision: which request was dropped and why.

    ``queue_depth`` is the admission-queue depth *after* the shed (the
    shed request excluded); ``waited_us`` measures from the request's
    original arrival, so a preempted-then-shed request reports its whole
    lifetime.  ``generated_tokens`` is nonzero only for requests shed
    after a preemption — work that was done and then thrown away.
    """

    request_id: int
    reason: str
    shed_us: float
    queue_depth: int
    waited_us: float
    priority: int = 0
    generated_tokens: int = 0


@dataclass(frozen=True)
class PreemptionRecord:
    """One preemption: a running sequence evicted for a higher-priority one.

    ``generated_tokens`` is the progress thrown away (to be recomputed on
    re-admission — restart-vs-resume accounting); ``kv_released`` is the
    reservation returned to the budget (the victim's final footprint).
    """

    request_id: int
    iteration: int
    preempted_us: float
    generated_tokens: int
    kv_released: int
    priority: int = 0


class _QueueEntry:
    """One queued (or re-queued) request with its restart bookkeeping."""

    __slots__ = ("request", "enqueued_us", "generated", "preemptions", "last_preempt_iteration")

    def __init__(
        self, request: InferenceRequest, enqueued_us: float = 0.0, generated: int = 0
    ) -> None:
        self.request = request
        self.enqueued_us = enqueued_us
        #: Tokens already generated before a preemption (0 for fresh).
        self.generated = generated
        self.preemptions = 0
        self.last_preempt_iteration = -(10**9)

    @property
    def prefill_rows(self) -> int:
        """Rows the (re-)prefill computes: the prompt plus any tokens that
        must be recomputed after a preemption."""
        return self.request.prompt_tokens + self.generated


class _ActiveSequence:
    """Bookkeeping of one admitted request: tokens generated so far."""

    __slots__ = (
        "request",
        "generated",
        "admitted_iteration",
        "preemptions",
        "last_preempt_iteration",
    )

    def __init__(self, entry: _QueueEntry, admitted_iteration: int = 0) -> None:
        self.request = entry.request
        self.generated = entry.generated
        self.admitted_iteration = admitted_iteration
        self.preemptions = entry.preemptions
        self.last_preempt_iteration = entry.last_preempt_iteration

    @property
    def context_after_next(self) -> int:
        """KV depth once the next token is produced: prompt + generated + 1."""
        return self.request.prompt_tokens + self.generated + 1

    @property
    def finished(self) -> bool:
        return self.generated >= self.request.decode_tokens


class ContinuousBatcher:
    """Iteration-level scheduler packing requests under batch/KV budgets."""

    def __init__(
        self,
        max_batch: int = 8,
        max_kv_tokens: int = 8192,
        max_prefill_tokens: int = 512,
        shed_policy: str = "none",
        max_queue: Optional[int] = None,
        preemption: bool = False,
        min_preempt_gap: int = 2,
    ) -> None:
        check_positive("max_batch", max_batch)
        check_positive("max_kv_tokens", max_kv_tokens)
        check_positive("max_prefill_tokens", max_prefill_tokens)
        if shed_policy not in SHED_POLICIES:
            raise ServingError(
                f"unknown shed_policy {shed_policy!r}; expected one of {SHED_POLICIES}"
            )
        if max_queue is not None:
            check_positive("max_queue", max_queue)
            if shed_policy == "none":
                raise ServingError(
                    'max_queue requires a shedding policy; shed_policy="none" '
                    "queues without bound"
                )
        elif shed_policy == "reject-on-full":
            raise ServingError('shed_policy="reject-on-full" requires max_queue')
        check_positive("min_preempt_gap", min_preempt_gap)
        if preemption and shed_policy != "priority":
            raise ServingError(
                'preemption=True requires shed_policy="priority" (victims are '
                "chosen by priority)"
            )
        self.max_batch = max_batch
        self.max_kv_tokens = max_kv_tokens
        self.max_prefill_tokens = max_prefill_tokens
        self.shed_policy = shed_policy
        self.max_queue = max_queue
        self.preemption = preemption
        self.min_preempt_gap = min_preempt_gap
        self._queue: List[_QueueEntry] = []
        self._active: Dict[int, _ActiveSequence] = {}
        #: KV tokens reserved by active sequences (final footprints).
        self._kv_reserved = 0
        #: Highest KV reservation ever held (for budget-never-exceeded checks).
        self.kv_reserved_peak = 0
        #: Plans returned so far (the anti-thrash guard's clock).
        self.iteration = 0
        self.shed_records: List[ShedRecord] = []
        self.preemption_records: List[PreemptionRecord] = []
        #: Generated tokens thrown away by preemptions (recompute cost).
        self.restarted_tokens = 0
        self._shed_cursor = 0
        self._preempt_cursor = 0

    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        return len(self._queue)

    @property
    def running(self) -> int:
        return len(self._active)

    @property
    def kv_reserved(self) -> int:
        return self._kv_reserved

    @property
    def preemptions(self) -> int:
        return len(self.preemption_records)

    @property
    def shed(self) -> int:
        return len(self.shed_records)

    @property
    def idle(self) -> bool:
        return not self._queue and not self._active

    def oldest_queued(self) -> Optional[_QueueEntry]:
        """The queued entry with the earliest original arrival, if any."""
        if not self._queue:
            return None
        return min(
            self._queue, key=lambda e: (e.request.arrival_us, e.request.request_id)
        )

    def drain_shed(self) -> Tuple[ShedRecord, ...]:
        """Shed records appended since the previous drain."""
        if self._shed_cursor == len(self.shed_records):
            return ()
        records = tuple(self.shed_records[self._shed_cursor :])
        self._shed_cursor = len(self.shed_records)
        return records

    def drain_preemptions(self) -> Tuple[PreemptionRecord, ...]:
        """Preemption records appended since the previous drain."""
        if self._preempt_cursor == len(self.preemption_records):
            return ()
        records = tuple(self.preemption_records[self._preempt_cursor :])
        self._preempt_cursor = len(self.preemption_records)
        return records

    # ------------------------------------------------------------------
    def enqueue(
        self, request: InferenceRequest, now_us: float = 0.0
    ) -> Optional[ShedRecord]:
        """Admit ``request`` to the waiting queue.

        A request whose final KV footprint exceeds the whole budget could
        never be scheduled and is rejected immediately (an error, not a
        shed: the scenario is inconsistent).  Under a shedding policy the
        request may instead be shed — expired on arrival, or squeezed out
        of a full queue — in which case the :class:`ShedRecord` is
        returned (and also appended to :attr:`shed_records`).
        """
        if request.total_tokens > self.max_kv_tokens:
            raise ServingError(
                f"request {request.request_id} needs {request.total_tokens} KV "
                f"tokens but the batcher budget is {self.max_kv_tokens}"
            )
        return self._admit_to_queue(_QueueEntry(request, enqueued_us=now_us), now_us)

    def readmit(
        self, request: InferenceRequest, generated: int, now_us: float = 0.0
    ) -> Optional[ShedRecord]:
        """Re-queue a request whose completion was lost downstream.

        The chaos layer's ``drop_completion`` fault uses this: the
        sequence finished but its completion never reached the client, so
        the request re-enters the queue with ``generated`` tokens already
        produced (the re-prefill recomputes them).  Subject to the same
        shedding policy as a fresh enqueue.
        """
        if not 0 <= generated < request.decode_tokens:
            raise ServingError(
                f"request {request.request_id}: generated must be in "
                f"[0, {request.decode_tokens}), got {generated}"
            )
        entry = _QueueEntry(request, enqueued_us=now_us, generated=generated)
        return self._admit_to_queue(entry, now_us)

    def _admit_to_queue(
        self, entry: _QueueEntry, now_us: float
    ) -> Optional[ShedRecord]:
        expires = self.shed_policy in ("shed-expired", "priority")
        if expires and entry.request.expired(now_us):
            return self._shed(entry, DEADLINE_EXPIRED, now_us)
        if self.max_queue is not None and len(self._queue) >= self.max_queue:
            if expires:
                self._shed_expired(now_us)
        if self.max_queue is not None and len(self._queue) >= self.max_queue:
            if self.shed_policy == "priority":
                victim = min(
                    self._queue + [entry],
                    key=lambda e: (
                        e.request.priority,
                        -e.request.arrival_us,
                        -e.request.request_id,
                    ),
                )
                if victim is not entry:
                    self._queue.remove(victim)
                    self._queue.append(entry)
                return self._shed(victim, QUEUE_FULL, now_us)
            return self._shed(entry, QUEUE_FULL, now_us)
        self._queue.append(entry)
        return None

    def _shed(self, entry: _QueueEntry, reason: str, now_us: float) -> ShedRecord:
        record = ShedRecord(
            request_id=entry.request.request_id,
            reason=reason,
            shed_us=now_us,
            queue_depth=len(self._queue),
            waited_us=max(0.0, now_us - entry.request.arrival_us),
            priority=entry.request.priority,
            generated_tokens=entry.generated,
        )
        self.shed_records.append(record)
        return record

    def _shed_expired(self, now_us: float) -> None:
        for entry in [e for e in self._queue if e.request.expired(now_us)]:
            self._queue.remove(entry)
            self._shed(entry, DEADLINE_EXPIRED, now_us)

    # ------------------------------------------------------------------
    def next_plan(self, now_us: float = 0.0) -> Optional[BatchPlan]:
        """Schedule the next iteration, or ``None`` when nothing can run.

        A returned prefill plan has already *admitted* its requests: they
        move from the queue into the running set and their KV budget is
        reserved.  Token progress happens later, in :meth:`advance`.

        Deadline-aware policies first sweep expired entries out of the
        queue (check :meth:`drain_shed` after every call); the
        ``"priority"`` policy with ``preemption=True`` may also evict
        running sequences to make room for the head-of-line candidate.
        """
        if self.shed_policy in ("shed-expired", "priority"):
            self._shed_expired(now_us)
        admitted = self._admit(now_us)
        if admitted:
            self.iteration += 1
            return BatchPlan(
                phase=PREFILL,
                request_ids=tuple(e.request.request_id for e in admitted),
                rows=sum(e.prefill_rows for e in admitted),
                keys=max(e.prefill_rows for e in admitted),
            )
        if self._active:
            self.iteration += 1
            return BatchPlan(
                phase=DECODE,
                request_ids=tuple(self._active),
                rows=len(self._active),
                keys=max(
                    sequence.context_after_next for sequence in self._active.values()
                ),
            )
        return None

    def _ordered_queue(self) -> List[_QueueEntry]:
        if self.shed_policy == "priority":
            return sorted(
                self._queue,
                key=lambda e: (
                    -e.request.priority,
                    e.request.arrival_us,
                    e.request.request_id,
                ),
            )
        return list(self._queue)

    def _admit(self, now_us: float) -> Tuple[_QueueEntry, ...]:
        if not self._queue:
            return ()
        admitted: List[_QueueEntry] = []
        prefill_tokens = 0
        preempt_attempted = False
        # Scan a snapshot: sequences preempted during this pass re-enter
        # the queue but are not reconsidered until the next plan (that
        # would be admit-after-evict thrash within one iteration).
        for entry in self._ordered_queue():
            if entry not in self._queue:
                continue  # shed while re-queueing a preemption victim
            request = entry.request
            pending_kv = sum(e.request.total_tokens for e in admitted)
            slot_free = len(self._active) + len(admitted) < self.max_batch
            kv_free = (
                self._kv_reserved + pending_kv + request.total_tokens
                <= self.max_kv_tokens
            )
            if not (slot_free and kv_free):
                if self.preemption and not preempt_attempted:
                    preempt_attempted = True
                    if self._make_room(entry, pending_kv, len(admitted), now_us):
                        slot_free = (
                            len(self._active) + len(admitted) < self.max_batch
                        )
                        kv_free = (
                            self._kv_reserved + pending_kv + request.total_tokens
                            <= self.max_kv_tokens
                        )
                if not (slot_free and kv_free):
                    break
            if admitted and prefill_tokens + entry.prefill_rows > self.max_prefill_tokens:
                break
            self._queue.remove(entry)
            admitted.append(entry)
            prefill_tokens += entry.prefill_rows
        for entry in admitted:
            self._active[entry.request.request_id] = _ActiveSequence(
                entry, admitted_iteration=self.iteration
            )
            self._kv_reserved += entry.request.total_tokens
        if self._kv_reserved > self.kv_reserved_peak:
            self.kv_reserved_peak = self._kv_reserved
        return tuple(admitted)

    def _make_room(
        self,
        candidate: _QueueEntry,
        pending_kv: int,
        pending_slots: int,
        now_us: float,
    ) -> bool:
        """Try to evict lower-priority running sequences for ``candidate``.

        Victims are planned first and only evicted when the full set
        makes the candidate fit — a preemption that would not let the
        candidate in is not performed at all.  Victim order: lowest
        priority first, then most recently admitted (LIFO — the least
        sunk work), then highest request id.
        """
        request = candidate.request
        eligible = [
            seq
            for seq in self._active.values()
            if seq.request.priority < request.priority
            and self.iteration - seq.last_preempt_iteration >= self.min_preempt_gap
        ]
        eligible.sort(
            key=lambda s: (
                s.request.priority,
                -s.admitted_iteration,
                -s.request.request_id,
            )
        )
        victims: List[_ActiveSequence] = []
        freed_kv = 0
        for seq in eligible:
            kv_ok = (
                self._kv_reserved - freed_kv + pending_kv + request.total_tokens
                <= self.max_kv_tokens
            )
            slot_ok = (
                len(self._active) - len(victims) + pending_slots < self.max_batch
            )
            if kv_ok and slot_ok:
                break
            victims.append(seq)
            freed_kv += seq.request.total_tokens
        kv_ok = (
            self._kv_reserved - freed_kv + pending_kv + request.total_tokens
            <= self.max_kv_tokens
        )
        slot_ok = len(self._active) - len(victims) + pending_slots < self.max_batch
        if not (kv_ok and slot_ok):
            return False
        for seq in victims:
            self._preempt(seq, now_us)
        return True

    def _preempt(self, seq: _ActiveSequence, now_us: float) -> None:
        del self._active[seq.request.request_id]
        self._kv_reserved -= seq.request.total_tokens
        self.preemption_records.append(
            PreemptionRecord(
                request_id=seq.request.request_id,
                iteration=self.iteration,
                preempted_us=now_us,
                generated_tokens=seq.generated,
                kv_released=seq.request.total_tokens,
                priority=seq.request.priority,
            )
        )
        self.restarted_tokens += seq.generated
        entry = _QueueEntry(seq.request, enqueued_us=now_us, generated=seq.generated)
        entry.preemptions = seq.preemptions + 1
        entry.last_preempt_iteration = self.iteration
        self._admit_to_queue(entry, now_us)

    def advance(self, plan: BatchPlan) -> Tuple[int, ...]:
        """Apply ``plan``'s token progress; return the ids that finished.

        A prefill produces each admitted request's first token; a decode
        produces one token per running sequence.  Finished sequences are
        evicted and their KV reservation released.
        """
        if plan.phase not in (PREFILL, DECODE):
            raise ServingError(f"unknown batch phase {plan.phase!r}")
        finished = []
        for request_id in plan.request_ids:
            sequence = self._active.get(request_id)
            if sequence is None:
                raise ServingError(
                    f"plan references request {request_id} which is not running"
                )
            sequence.generated += 1
            if sequence.finished:
                finished.append(request_id)
        for request_id in finished:
            sequence = self._active.pop(request_id)
            self._kv_reserved -= sequence.request.total_tokens
        return tuple(finished)
