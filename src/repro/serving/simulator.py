"""The virtual-time serving loop: arrivals -> batches -> simulated GPU time.

:class:`ServingSimulator` advances a virtual clock through an open-loop
serving scenario.  Each cycle it admits every request that has arrived,
asks the :class:`~repro.serving.batcher.ContinuousBatcher` for the next
iteration plan, materializes the plan's bucketed batch shape as a
transformer-layer :class:`~repro.pipeline.PipelineGraph`
(:class:`~repro.models.serving.ServingGraphCache`), and charges the
iteration the **simulated** GPU time of running that graph under the
scenario's scheme — obtained through
:meth:`~repro.pipeline.Session.sweep_point`, so a repeated batch shape
replays from the session's sweep cache (and the disk store, when one is
attached) instead of re-simulating.  Once the session has returned a
shape from its cache, the run charges that shape's later iterations from
a per-run memo of iteration times, without another lookup, and counts
each charge as a sweep-cache hit; a session with its cache off is asked
every time.  An idle system jumps the clock to the next arrival.

Overload semantics: the loop runs until every generated request is
*terminally resolved* — completed or shed.  Shed records drained from
the batcher count toward resolution, so a bounded-queue scenario under
2x overload still terminates (the legacy ``"none"`` policy queues
forever and merely finishes late).  Watchdogs (``max_iterations`` /
``max_sim_time_us`` on the scenario) raise a structured
:class:`~repro.errors.ServingStallError` with queue forensics instead of
letting a mis-sized scenario spin — the serving mirror of the
simulator-core ``LivelockError``.

A :class:`~repro.testing.faults.ServingFaultPlan` may be threaded
through :meth:`ServingSimulator.run` for request-level chaos: straggler
iterations (duration multipliers), dropped completions (the request is
re-queued and recomputed), and burst arrival spikes.  Faults never touch
the sweep cache or the memo — a straggler multiplies the looked-up time —
so a fault-free replay of the same scenario stays bit-identical.

Everything is deterministic for a given scenario (and fault plan):
seeded arrivals, deterministic admission, deterministic simulation.  Two
runs with the same inputs produce ``==``
:class:`~repro.serving.metrics.LatencyReport` objects — the serving
determinism contract, asserted in the test suite and gateable in CI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServingError, ServingStallError
from repro.gpu.arch import ArchLike, TESLA_V100, resolve_arch
from repro.models.config import GPT3_145B, TransformerConfig
from repro.models.serving import ServingGraphCache
from repro.pipeline.executors import scheme_name
from repro.pipeline.session import Session, SweepPoint, SweepPolicy
from repro.serving.arrivals import ArrivalProcess, InferenceRequest
from repro.serving.batcher import ContinuousBatcher, PREFILL, ShedRecord
from repro.serving.metrics import LatencyReport, RequestRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.testing.faults import ServingFaultPlan

__all__ = ["ServingScenario", "ServingSimulator", "compare_schemes"]


@dataclass(frozen=True)
class ServingScenario:
    """One complete open-loop serving experiment description.

    A scenario is pure data: the traffic (``arrivals`` + ``requests``),
    the model shape, the batcher budgets, the shape buckets the graph
    cache uses, a per-iteration scheduling overhead, and the latency SLO
    that defines goodput.  The same scenario object can be run under
    every scheme/arch for an apples-to-apples comparison.

    The overload knobs (``shed_policy``, ``max_queue``, ``preemption``,
    ``min_preempt_gap``) configure the batcher's admission control — see
    :class:`~repro.serving.batcher.ContinuousBatcher`; the watchdog
    limits (``max_iterations``, ``max_sim_time_us``) bound the loop and
    raise :class:`~repro.errors.ServingStallError` when exceeded.  All
    default to the legacy run-forever behavior.
    """

    arrivals: ArrivalProcess
    requests: int
    config: TransformerConfig = GPT3_145B
    max_batch: int = 8
    max_kv_tokens: int = 8192
    max_prefill_tokens: int = 512
    row_bucket: int = 8
    kv_bucket: int = 64
    #: Fixed scheduling/launch overhead charged per iteration, in
    #: simulated microseconds (CPU-side batching work the GPU graph does
    #: not model).
    iteration_overhead_us: float = 0.0
    #: Total-latency SLO defining goodput; infinite = goodput==throughput.
    slo_us: float = math.inf
    shed_policy: str = "none"
    max_queue: Optional[int] = None
    preemption: bool = False
    min_preempt_gap: int = 2
    #: Watchdog: iteration-count guard (None = unbounded).
    max_iterations: Optional[int] = None
    #: Watchdog: simulated-time guard in microseconds (None = unbounded).
    max_sim_time_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.requests <= 0:
            raise ServingError(f"requests must be positive, got {self.requests}")
        # Negated comparisons, so a NaN (which fails every comparison) is
        # rejected too: a NaN overhead makes the clock NaN, and the loop
        # then never admits another arrival.
        if not 0.0 <= self.iteration_overhead_us < math.inf:
            raise ServingError(
                f"iteration_overhead_us must be finite and non-negative, "
                f"got {self.iteration_overhead_us}"
            )
        if not self.slo_us > 0.0:
            raise ServingError(f"slo_us must be positive, got {self.slo_us}")
        if self.max_iterations is not None and not self.max_iterations > 0:
            raise ServingError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )
        if self.max_sim_time_us is not None and not self.max_sim_time_us > 0.0:
            raise ServingError(
                f"max_sim_time_us must be positive, got {self.max_sim_time_us}"
            )


class _RequestTiming:
    """Mutable per-request event times collected during the loop."""

    __slots__ = ("request", "prefill_start_us", "prefill_end_us", "finish_us")

    def __init__(self, request: InferenceRequest) -> None:
        self.request = request
        self.prefill_start_us = -1.0
        self.prefill_end_us = -1.0
        self.finish_us = -1.0

    def record(self, preemptions: int = 0) -> RequestRecord:
        request = self.request
        return RequestRecord(
            request_id=request.request_id,
            arrival_us=request.arrival_us,
            prompt_tokens=request.prompt_tokens,
            decode_tokens=request.decode_tokens,
            queue_us=self.prefill_start_us - request.arrival_us,
            prefill_us=self.prefill_end_us - self.prefill_start_us,
            decode_us=self.finish_us - self.prefill_end_us,
            total_us=self.finish_us - request.arrival_us,
            ttft_us=self.prefill_end_us - request.arrival_us,
            finish_us=self.finish_us,
            priority=request.priority,
            deadline_us=request.deadline_us,
            preemptions=preemptions,
        )


class ServingSimulator:
    """Run open-loop serving scenarios on the simulated GPU.

    One simulator binds an execution configuration — scheme, policy,
    architecture — and a :class:`~repro.pipeline.Session` whose sweep
    cache persists across :meth:`run` calls (pass ``session=`` to share
    one, e.g. with a ``result_store`` attached for cross-process reuse).
    The memo of repeated shapes lives for one :meth:`run` call only.
    """

    def __init__(
        self,
        scheme: str = "cusync",
        policy: SweepPolicy = "TileSync",
        arch: ArchLike = TESLA_V100,
        session: Optional[Session] = None,
    ) -> None:
        self.scheme = scheme_name(scheme)
        #: Non-cusync schemes have no policy axis.
        self.policy = policy if self.scheme == "cusync" else None
        self.arch = resolve_arch(arch)
        self.session = session if session is not None else Session(arch=arch)

    # ------------------------------------------------------------------
    def run(
        self,
        scenario: ServingScenario,
        faults: Optional["ServingFaultPlan"] = None,
    ) -> LatencyReport:
        """Simulate ``scenario`` to (terminal) resolution and report.

        With ``faults`` set, the seeded request-level chaos plan is
        applied: burst spikes rewrite the arrival schedule up front,
        straggler multipliers stretch individual iterations, and dropped
        completions re-queue their request for recomputation.
        """
        requests = scenario.arrivals.generate(scenario.requests)
        if faults is not None:
            requests = faults.apply_to_arrivals(requests)
        batcher = ContinuousBatcher(
            max_batch=scenario.max_batch,
            max_kv_tokens=scenario.max_kv_tokens,
            max_prefill_tokens=scenario.max_prefill_tokens,
            shed_policy=scenario.shed_policy,
            max_queue=scenario.max_queue,
            preemption=scenario.preemption,
            min_preempt_gap=scenario.min_preempt_gap,
        )
        graphs = ServingGraphCache(
            config=scenario.config,
            arch=self.arch,
            row_bucket=scenario.row_bucket,
            kv_bucket=scenario.kv_bucket,
        )
        timings: Dict[int, _RequestTiming] = {
            request.request_id: _RequestTiming(request) for request in requests
        }
        cache_hits_before = self.session.sweep_cache_hits
        cache_misses_before = self.session.sweep_cache_misses
        store_hits_before = self.session.sweep_store_hits
        point = SweepPoint(scheme=self.scheme, policy=self.policy, arch=self.arch)
        # Iteration time (before stragglers) of each bucketed shape the
        # session has replayed from its cache; later iterations of the
        # shape are charged from here, each counted as a cache hit.
        memo: Dict[Tuple[int, int], float] = {}
        memo_hits = 0

        pending: List[InferenceRequest] = sorted(
            requests, key=lambda request: (request.arrival_us, request.request_id)
        )
        next_arrival = 0
        clock = 0.0
        completed = 0
        resolved = 0
        iterations = prefill_iterations = decode_iterations = 0
        records: List[RequestRecord] = []
        shed_records: List[ShedRecord] = []
        preempt_counts: Dict[int, int] = {}
        dropped_once: set = set()

        def drain() -> None:
            nonlocal resolved
            for record in batcher.drain_shed():
                shed_records.append(record)
                resolved += 1
            for record in batcher.drain_preemptions():
                preempt_counts[record.request_id] = (
                    preempt_counts.get(record.request_id, 0) + 1
                )

        def stall(guard: str, limit: float) -> ServingStallError:
            oldest = batcher.oldest_queued()
            return ServingStallError(
                f"serving loop exceeded {guard}={limit:g} with "
                f"{len(requests) - resolved} request(s) unresolved",
                guard=guard,
                iterations=iterations,
                simulated_time_us=clock,
                completed=completed,
                shed=len(shed_records),
                total_requests=len(requests),
                queue_depth=batcher.queued,
                running=batcher.running,
                kv_reserved=batcher.kv_reserved,
                oldest_request_id=(
                    None if oldest is None else oldest.request.request_id
                ),
                oldest_waited_us=(
                    0.0 if oldest is None else clock - oldest.request.arrival_us
                ),
                limit=limit,
            )

        while resolved < len(requests):
            while (
                next_arrival < len(pending)
                and pending[next_arrival].arrival_us <= clock
            ):
                batcher.enqueue(pending[next_arrival], now_us=clock)
                next_arrival += 1
            plan = batcher.next_plan(now_us=clock)
            drain()
            if plan is None:
                if resolved >= len(requests):
                    break
                if next_arrival >= len(pending):
                    raise ServingError(
                        "serving loop stalled: nothing runnable and no "
                        "arrivals left (batcher invariant violated)"
                    )
                # Idle: jump the virtual clock to the next arrival.
                clock = max(clock, pending[next_arrival].arrival_us)
                continue
            iterations += 1
            if (
                scenario.max_iterations is not None
                and iterations > scenario.max_iterations
            ):
                raise stall("max_iterations", float(scenario.max_iterations))
            shape = graphs.bucket_of(plan.rows, plan.keys)
            duration_us = memo.get(shape)
            if duration_us is None:
                result = self.session.sweep_point(
                    graphs.graph_for(plan.rows, plan.keys), point
                )
                duration_us = result.total_time_us + scenario.iteration_overhead_us
                if result.cached:
                    memo[shape] = duration_us
            else:
                memo_hits += 1
            if faults is not None:
                duration_us *= faults.straggler_factor(iterations - 1)
            start_us = clock
            clock += duration_us
            if (
                scenario.max_sim_time_us is not None
                and clock > scenario.max_sim_time_us
            ):
                raise stall("max_sim_time_us", scenario.max_sim_time_us)
            if plan.phase == PREFILL:
                prefill_iterations += 1
                for request_id in plan.request_ids:
                    timing = timings[request_id]
                    # Only the first prefill sets TTFT: a preemption
                    # restart recomputes tokens already streamed out.
                    if timing.prefill_start_us < 0.0:
                        timing.prefill_start_us = start_us
                        timing.prefill_end_us = clock
            else:
                decode_iterations += 1
            for request_id in batcher.advance(plan):
                timing = timings[request_id]
                if (
                    faults is not None
                    and faults.drops_completion(request_id)
                    and request_id not in dropped_once
                ):
                    # The sequence finished but its completion was lost:
                    # re-queue for recomputation of the final token.  The
                    # request stays unresolved until it completes (or is
                    # shed) on the retry.
                    dropped_once.add(request_id)
                    batcher.readmit(
                        timing.request,
                        generated=timing.request.decode_tokens - 1,
                        now_us=clock,
                    )
                    continue
                timing.finish_us = clock
                records.append(timing.record(preempt_counts.get(request_id, 0)))
                completed += 1
                resolved += 1
            drain()

        records.sort(key=lambda record: record.request_id)
        shed_records.sort(key=lambda record: (record.shed_us, record.request_id))
        policy_label = "" if self.policy is None else (
            self.policy if isinstance(self.policy, str) else self.policy.label()
        )
        return LatencyReport.from_records(
            records,
            scheme=self.scheme,
            policy=policy_label,
            arch=self.arch.name,
            requests=len(requests),
            simulated_us=clock,
            iterations=iterations,
            prefill_iterations=prefill_iterations,
            decode_iterations=decode_iterations,
            distinct_shapes=graphs.distinct_shapes,
            sweep_cache_hits=(
                self.session.sweep_cache_hits - cache_hits_before + memo_hits
            ),
            sweep_cache_misses=self.session.sweep_cache_misses - cache_misses_before,
            store_hits=self.session.sweep_store_hits - store_hits_before,
            slo_us=scenario.slo_us,
            shed_records=shed_records,
            preemptions=batcher.preemptions,
            restarted_tokens=batcher.restarted_tokens,
            kv_reserved_peak=batcher.kv_reserved_peak,
        )


def compare_schemes(
    scenario: ServingScenario,
    schemes: Sequence[str] = ("streamsync", "streamk", "cusync"),
    policy: SweepPolicy = "TileSync",
    arch: ArchLike = TESLA_V100,
    session: Optional[Session] = None,
    faults: Optional["ServingFaultPlan"] = None,
) -> Dict[str, LatencyReport]:
    """Run ``scenario`` under every scheme and collect the reports.

    All schemes share one :class:`~repro.pipeline.Session` (pass your own
    to persist its caches further), so the per-scheme cache hit counts in
    the reports tell the serving-cache story of each scheme's run alone —
    trace keys include the scheme, so schemes never share entries.  A
    fault plan, when given, applies identically to every scheme.
    """
    shared = session if session is not None else Session(arch=arch)
    reports: Dict[str, LatencyReport] = {}
    for scheme in schemes:
        simulator = ServingSimulator(
            scheme=scheme, policy=policy, arch=arch, session=shared
        )
        reports[scheme] = simulator.run(scenario, faults=faults)
    return reports
