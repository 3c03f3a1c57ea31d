"""Deterministic fault injection for the sweep and simulator stack.

Robust recovery paths are only trustworthy if they are *exercised*; this
module makes every failure mode the sweep layer handles reproducible on
demand instead of waiting for luck.  A :class:`FaultPlan` maps sweep-point
positions to faults, either explicitly (``FaultSpec(kind="crash",
point=3)``) or drawn from seeded fractions (:meth:`FaultPlan.seeded`), and
:func:`inject_faults` activates the plan for every
:meth:`~repro.pipeline.session.Session.sweep` call in the ``with`` block::

    plan = FaultPlan.seeded(len(work), seed=7, crash=0.1, hang=0.1)
    with inject_faults(plan):
        results = session.sweep(work, mode="process",
                                on_error="collect", retries=2, timeout=5.0)

Fault taxonomy (:data:`FAULT_KINDS`):

``crash``
    The evaluating worker process dies mid-point (``os._exit``), producing
    a ``BrokenProcessPool`` in the parent.  Serial mode cannot sacrifice
    the host process, so the crash degrades to
    :class:`~repro.errors.InjectedCrashError` there.
``hang``
    The evaluation sleeps for :attr:`FaultSpec.hang_seconds` before
    running.  Under a per-point ``timeout`` this exercises the timed-out
    path: process mode kills and respawns the pool, serial mode discards
    the late result.
``error``
    The evaluation raises :class:`~repro.errors.InjectedFaultError`
    deterministically — the plain exception-propagation path.
``drop_post`` / ``dup_post``
    The :class:`~repro.gpu.simulator.GpuSimulator` skips (or applies
    twice) the *n*-th semaphore post of the run — the classic lost-wakeup
    and double-signal bugs.  A dropped post typically surfaces as a
    :class:`~repro.errors.DeadlockError` with wait-graph forensics; a run
    that survives a fired post fault is reported as
    :class:`~repro.errors.InjectedFaultError` anyway, because its trace can
    no longer be trusted.
``corrupt_result``
    The point evaluates cleanly but its result payload is corrupted
    (``total_time_us`` becomes NaN) before being returned — exercising the
    sweep layer's result-sanity validation.

Faults fire per ``(point, attempt)``: by default only on attempt 0, so a
retried point recovers — the property the chaos acceptance test pins
(every point ends as a bit-identical result or a structured failure).

Injection is thread-safe: the *plan* is a process-global (it crosses
worker-process boundaries inside sweep payloads), while the simulator-level
post-fault context is thread-local so points evaluated concurrently on a
``SweepService`` thread pool cannot see each other's faults.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

from repro.errors import InjectedCrashError, InjectedFaultError, SimulationError

#: Every fault kind a plan may contain, in the order ``seeded`` draws them.
FAULT_KINDS: Tuple[str, ...] = (
    "crash",
    "hang",
    "error",
    "drop_post",
    "dup_post",
    "corrupt_result",
)

#: Exit status an injected worker crash dies with (distinctive in logs).
CRASH_EXIT_CODE = 87


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: *what* happens to *which* point on *which* attempts."""

    #: One of :data:`FAULT_KINDS`.
    kind: str
    #: Position of the target point in the sweep's work list.
    point: int
    #: Attempt numbers (0-based) the fault fires on.  The default —
    #: first attempt only — models transient faults that a retry survives.
    attempts: Tuple[int, ...] = (0,)
    #: For ``drop_post`` / ``dup_post``: which post of the simulation run
    #: (0-based, counting segment-completion posts) is affected.
    post_index: int = 0
    #: For ``hang``: how long the evaluation sleeps before proceeding.
    hang_seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise SimulationError(
                f"unknown fault kind {self.kind!r}; choose one of {FAULT_KINDS}"
            )
        if self.point < 0:
            raise SimulationError(f"fault point must be non-negative, got {self.point}")

    def fires_on(self, attempt: int) -> bool:
        return attempt in self.attempts


class FaultPlan:
    """A deterministic assignment of faults to sweep-point positions.

    At most one fault per point position; plans are immutable, hashable by
    identity, and picklable (they travel inside process-mode sweep
    payloads, so worker processes replay exactly the faults the parent
    planned).
    """

    def __init__(self, faults: Iterable[FaultSpec] = (), seed: Optional[int] = None):
        self.faults: Tuple[FaultSpec, ...] = tuple(faults)
        self.seed = seed
        by_point = {}
        for spec in self.faults:
            if spec.point in by_point:
                raise SimulationError(
                    f"FaultPlan has two faults for point {spec.point}; "
                    "at most one fault per point is supported"
                )
            by_point[spec.point] = spec
        self._by_point = by_point

    @classmethod
    def seeded(
        cls,
        num_points: int,
        seed: int,
        *,
        crash: float = 0.0,
        hang: float = 0.0,
        error: float = 0.0,
        drop_post: float = 0.0,
        dup_post: float = 0.0,
        corrupt_result: float = 0.0,
        attempts: Tuple[int, ...] = (0,),
        hang_seconds: float = 0.25,
        post_index_max: int = 8,
    ) -> "FaultPlan":
        """Draw one fault (or none) per point from seeded fractions.

        ``crash=0.1, hang=0.1`` gives every point a 10% chance of each;
        the same ``(num_points, seed, fractions)`` always produces the same
        plan, so chaos tests are reproducible bug reports rather than
        flakes.
        """
        fractions = (
            ("crash", crash),
            ("hang", hang),
            ("error", error),
            ("drop_post", drop_post),
            ("dup_post", dup_post),
            ("corrupt_result", corrupt_result),
        )
        total = sum(fraction for _, fraction in fractions)
        if total > 1.0 + 1e-9:
            raise SimulationError(f"fault fractions sum to {total}, must be <= 1")
        rng = random.Random(seed)
        faults = []
        for point in range(num_points):
            draw = rng.random()
            post_index = rng.randrange(post_index_max) if post_index_max > 0 else 0
            cumulative = 0.0
            for kind, fraction in fractions:
                cumulative += fraction
                if draw < cumulative:
                    faults.append(
                        FaultSpec(
                            kind=kind,
                            point=point,
                            attempts=tuple(attempts),
                            post_index=post_index,
                            hang_seconds=hang_seconds,
                        )
                    )
                    break
        return cls(faults, seed=seed)

    def fault_for(self, point: int, attempt: int) -> Optional[FaultSpec]:
        """The fault that fires for ``point`` on ``attempt``, if any."""
        spec = self._by_point.get(point)
        if spec is not None and spec.fires_on(attempt):
            return spec
        return None

    @property
    def fault_points(self) -> Tuple[int, ...]:
        """Sorted positions of every point the plan faults (any attempt)."""
        return tuple(sorted(self._by_point))

    def fault_fraction(self, num_points: int) -> float:
        """Share of ``num_points`` positions that carry a fault."""
        if num_points <= 0:
            return 0.0
        return sum(1 for point in self._by_point if point < num_points) / num_points

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        kinds = {}
        for spec in self.faults:
            kinds[spec.kind] = kinds.get(spec.kind, 0) + 1
        summary = ", ".join(f"{kind}={count}" for kind, count in sorted(kinds.items()))
        return f"FaultPlan(seed={self.seed}, {len(self.faults)} faults: {summary or 'none'})"


# ----------------------------------------------------------------------
# Plan activation (process-global; travels to workers inside payloads)
# ----------------------------------------------------------------------
_active_plan: Optional[FaultPlan] = None


def active_fault_plan() -> Optional[FaultPlan]:
    """The plan installed by the innermost :func:`inject_faults`, if any."""
    return _active_plan


@contextmanager
def inject_faults(plan: FaultPlan):
    """Activate ``plan`` for every sweep evaluated inside the block."""
    global _active_plan
    previous = _active_plan
    _active_plan = plan
    try:
        yield plan
    finally:
        _active_plan = previous


# ----------------------------------------------------------------------
# Simulator-level post faults (thread-local: one per evaluating thread)
# ----------------------------------------------------------------------
class PostFault:
    """Run-scoped state for one ``drop_post`` / ``dup_post`` fault.

    The simulator counts segment-completion posts; when the count reaches
    :attr:`FaultSpec.post_index` the fault fires once (drop: the post is
    skipped; dup: it is applied twice).  ``fired`` records whether the run
    actually had enough posts to reach the index.
    """

    __slots__ = ("kind", "post_index", "fired", "_counter")

    def __init__(self, spec: FaultSpec):
        self.kind = spec.kind
        self.post_index = spec.post_index
        self.fired = False
        self._counter = 0

    def next_action(self) -> Optional[str]:
        """Consulted once per post; returns ``"drop"``, ``"dup"`` or ``None``."""
        index = self._counter
        self._counter += 1
        if index == self.post_index:
            self.fired = True
            return "drop" if self.kind == "drop_post" else "dup"
        return None


_sim_context = threading.local()


def current_post_fault() -> Optional[PostFault]:
    """The post fault armed for the calling thread's next simulator run."""
    return getattr(_sim_context, "post_fault", None)


@contextmanager
def _armed_post_fault(spec: FaultSpec):
    fault = PostFault(spec)
    previous = getattr(_sim_context, "post_fault", None)
    _sim_context.post_fault = fault
    try:
        yield fault
    finally:
        _sim_context.post_fault = previous


def _corrupt_result(result):
    """Corrupt a sweep result payload the way a truncated IPC write would."""
    from dataclasses import replace

    return replace(result, total_time_us=float("nan"))


def run_point_with_faults(
    plan: Optional[FaultPlan],
    point: int,
    attempt: int,
    evaluate: Callable[[], object],
    in_worker_process: bool = False,
):
    """Evaluate one sweep point under the plan's fault for ``(point, attempt)``.

    The single choke point every sweep execution mode funnels through:
    serial evaluation calls it in-process, the process-mode
    worker entry point calls it with ``in_worker_process=True`` after
    unpickling the plan from its payload.  With no plan (the fault-free
    path) it is a plain call-through.
    """
    spec = plan.fault_for(point, attempt) if plan is not None else None
    if spec is None:
        return evaluate()
    if spec.kind == "crash":
        if in_worker_process:
            # Die the way a segfaulting worker would: no exception, no
            # cleanup, just a vanished process (-> BrokenProcessPool).
            os._exit(CRASH_EXIT_CODE)
        raise InjectedCrashError(
            f"injected worker crash for point {point} (attempt {attempt}); "
            "serial mode surfaces the crash as this exception"
        )
    if spec.kind == "hang":
        time.sleep(spec.hang_seconds)
        return evaluate()
    if spec.kind == "error":
        raise InjectedFaultError(
            f"injected evaluation error for point {point} (attempt {attempt})"
        )
    if spec.kind in ("drop_post", "dup_post"):
        with _armed_post_fault(spec) as fault:
            result = evaluate()
        if fault.fired:
            # The simulation completed despite a skipped/duplicated post;
            # its trace cannot be trusted, so fail the attempt explicitly.
            raise InjectedFaultError(
                f"injected {spec.kind} fault fired for point {point} "
                f"(attempt {attempt}) but the run completed; discarding the "
                "tainted result"
            )
        return result
    # corrupt_result: evaluate cleanly, then damage the payload.
    return _corrupt_result(evaluate())


# ----------------------------------------------------------------------
# Request-level serving faults (consumed by repro.serving's simulator)
# ----------------------------------------------------------------------

#: Every serving fault kind a :class:`ServingFaultPlan` may contain, in
#: the order :meth:`ServingFaultPlan.seeded` draws them.
SERVING_FAULT_KINDS: Tuple[str, ...] = ("straggler", "drop_completion", "burst")


@dataclass(frozen=True)
class ServingFaultSpec:
    """One planned request-level serving fault.

    ``target`` is an iteration index for ``straggler`` faults and a
    request id for ``drop_completion`` / ``burst`` faults.
    """

    #: One of :data:`SERVING_FAULT_KINDS`.
    kind: str
    #: Iteration index (straggler) or request id (drop_completion, burst).
    target: int
    #: For ``straggler``: the duration multiplier applied to the iteration.
    factor: float = 4.0
    #: For ``burst``: how many subsequent arrivals collapse onto the
    #: target request's arrival time (the spike width).
    span: int = 4

    def __post_init__(self) -> None:
        if self.kind not in SERVING_FAULT_KINDS:
            raise SimulationError(
                f"unknown serving fault kind {self.kind!r}; "
                f"choose one of {SERVING_FAULT_KINDS}"
            )
        if self.target < 0:
            raise SimulationError(
                f"serving fault target must be non-negative, got {self.target}"
            )
        if self.factor <= 0.0:
            raise SimulationError(
                f"straggler factor must be positive, got {self.factor}"
            )
        if self.span < 1:
            raise SimulationError(f"burst span must be >= 1, got {self.span}")


class ServingFaultPlan:
    """A deterministic assignment of request-level faults to a serving run.

    The serving counterpart of :class:`FaultPlan`, consumed by
    :meth:`repro.serving.ServingSimulator.run`:

    ``straggler``
        Iteration ``target`` takes ``factor``x its simulated duration —
        a slow kernel launch, a paused clock, an unlucky SM.  Applied
        *after* the sweep-cache lookup, so cached costs are untouched
        and a fault-free replay stays bit-identical.
    ``drop_completion``
        Request ``target``'s completion is lost the first time it
        finishes: the batcher re-queues it with all but the final token
        already generated (recompute on re-prefill), so it terminally
        resolves as completed-or-shed instead of vanishing.
    ``burst``
        The ``span - 1`` arrivals after request ``target`` collapse onto
        its arrival time — a synchronized client spike.  Rewrites the
        arrival schedule up front (monotonicity preserved; absolute
        deadlines kept).

    At most one fault per ``(kind, target)``; plans are immutable and
    deterministic per seed.
    """

    def __init__(
        self, faults: Iterable[ServingFaultSpec] = (), seed: Optional[int] = None
    ):
        self.faults: Tuple[ServingFaultSpec, ...] = tuple(faults)
        self.seed = seed
        stragglers = {}
        drops = set()
        bursts = {}
        for spec in self.faults:
            if spec.kind == "straggler":
                if spec.target in stragglers:
                    raise SimulationError(
                        f"ServingFaultPlan has two straggler faults for "
                        f"iteration {spec.target}"
                    )
                stragglers[spec.target] = spec.factor
            elif spec.kind == "drop_completion":
                if spec.target in drops:
                    raise SimulationError(
                        f"ServingFaultPlan has two drop_completion faults for "
                        f"request {spec.target}"
                    )
                drops.add(spec.target)
            else:
                if spec.target in bursts:
                    raise SimulationError(
                        f"ServingFaultPlan has two burst faults for "
                        f"request {spec.target}"
                    )
                bursts[spec.target] = spec.span
        self._stragglers = stragglers
        self._drops = frozenset(drops)
        self._bursts = bursts

    @classmethod
    def seeded(
        cls,
        num_requests: int,
        seed: int,
        *,
        straggler: float = 0.0,
        drop_completion: float = 0.0,
        burst: float = 0.0,
        iterations: Optional[int] = None,
        straggler_factor: float = 4.0,
        burst_span: int = 4,
    ) -> "ServingFaultPlan":
        """Draw serving faults from seeded per-target fractions.

        ``straggler`` is a per-iteration probability over ``iterations``
        candidate iterations (default ``4 * num_requests``, a generous
        bound for continuous batching); ``drop_completion`` and ``burst``
        are per-request probabilities.  Same inputs, same plan — chaos
        runs are reproducible bug reports, not flakes.
        """
        for name, fraction in (
            ("straggler", straggler),
            ("drop_completion", drop_completion),
            ("burst", burst),
        ):
            if not 0.0 <= fraction <= 1.0:
                raise SimulationError(
                    f"serving fault fraction {name} must be in [0, 1], "
                    f"got {fraction}"
                )
        if num_requests <= 0:
            raise SimulationError(
                f"num_requests must be positive, got {num_requests}"
            )
        candidate_iterations = (
            4 * num_requests if iterations is None else iterations
        )
        rng = random.Random(seed)
        faults = []
        for index in range(candidate_iterations):
            if rng.random() < straggler:
                faults.append(
                    ServingFaultSpec(
                        kind="straggler", target=index, factor=straggler_factor
                    )
                )
        for request_id in range(num_requests):
            if rng.random() < drop_completion:
                faults.append(
                    ServingFaultSpec(kind="drop_completion", target=request_id)
                )
        for request_id in range(num_requests):
            if rng.random() < burst:
                faults.append(
                    ServingFaultSpec(kind="burst", target=request_id, span=burst_span)
                )
        return cls(faults, seed=seed)

    # ------------------------------------------------------------------
    def straggler_factor(self, iteration: int) -> float:
        """Duration multiplier for ``iteration`` (1.0 = no fault)."""
        return self._stragglers.get(iteration, 1.0)

    def drops_completion(self, request_id: int) -> bool:
        """True when ``request_id``'s first completion is planned to be lost."""
        return request_id in self._drops

    def apply_to_arrivals(self, requests: Sequence) -> tuple:
        """Rewrite an arrival schedule with the plan's burst spikes.

        For each burst anchored at request index ``i``, the following
        ``span - 1`` arrivals are pulled down to the anchor's arrival
        time.  Arrival order stays monotone (times are only lowered, and
        only onto an earlier entry of the same schedule); absolute
        deadlines are untouched, so a burst *tightens* effective slack —
        exactly what a client-side retry storm does.
        """
        from dataclasses import replace

        requests = tuple(requests)
        if not self._bursts:
            return requests
        arrivals = [request.arrival_us for request in requests]
        for index in sorted(self._bursts):
            if index >= len(arrivals):
                continue
            span = self._bursts[index]
            anchor = arrivals[index]
            for position in range(index + 1, min(index + span, len(arrivals))):
                arrivals[position] = anchor
        return tuple(
            request
            if arrivals[position] == request.arrival_us
            else replace(request, arrival_us=arrivals[position])
            for position, request in enumerate(requests)
        )

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        kinds = {}
        for spec in self.faults:
            kinds[spec.kind] = kinds.get(spec.kind, 0) + 1
        summary = ", ".join(f"{kind}={count}" for kind, count in sorted(kinds.items()))
        return (
            f"ServingFaultPlan(seed={self.seed}, {len(self.faults)} faults: "
            f"{summary or 'none'})"
        )
