"""Request-level serving on the simulator: open-loop load, continuous
batching, latency-percentile reporting.

Every other experiment in this repository runs a pipeline once; serving
is where the paper's thesis — tile-level synchronization recovering the
latency lost to stream-level barriers — compounds, because queueing
amplifies per-iteration latency differences into tail-latency blowups.
The pieces (see ``docs/serving.md`` for the full tour):

:mod:`repro.serving.arrivals`
    Open-loop traffic: :class:`InferenceRequest` plus deterministic
    seeded arrival processes — :class:`PoissonArrivals`,
    :class:`FixedRateArrivals` and replayed :class:`TraceArrivals`.

:mod:`repro.serving.batcher`
    :class:`ContinuousBatcher` — iteration-level (Orca-style) batching:
    prefill-prioritized FIFO admission under max-batch / KV-budget /
    prefill-token caps, immediate eviction of finished sequences.  Under
    overload it grows admission control: bounded queues with shedding
    policies (``"reject-on-full"``, ``"shed-expired"``, ``"priority"``)
    emitting structured :class:`ShedRecord` outcomes, and priority
    preemption with KV eviction (:class:`PreemptionRecord`, anti-thrash
    guarded) instead of silent infinite queueing.

:mod:`repro.serving.simulator`
    :class:`ServingSimulator` + :class:`ServingScenario` — the
    virtual-time loop charging each iteration the simulated GPU time of
    its batch-shaped transformer layer, evaluated through
    :meth:`Session.sweep_point <repro.pipeline.Session.sweep_point>` so
    repeated batch shapes replay from the sweep cache / result store;
    after a shape's first cached replay, the run charges it from a
    per-run memo of iteration times.
    :func:`compare_schemes` runs one scenario under several schemes.

:mod:`repro.serving.metrics`
    :class:`LatencyReport` — exact p50/p90/p99 percentiles
    (:func:`exact_percentile`, pinned against numpy), time-to-first-token,
    throughput and SLO-goodput, plus the cache-hit counters that make
    caching part of the serving story.

The whole loop is bit-deterministic for a given scenario: same seed ⇒
same arrivals ⇒ same batch compositions ⇒ same latencies ⇒ ``==``
reports.
"""

from repro.serving.arrivals import (
    ArrivalProcess,
    FixedRateArrivals,
    InferenceRequest,
    PoissonArrivals,
    TraceArrivals,
)
from repro.serving.batcher import (
    BatchPlan,
    ContinuousBatcher,
    PreemptionRecord,
    SHED_POLICIES,
    ShedRecord,
)
from repro.serving.metrics import (
    LatencyReport,
    PriorityClassStats,
    RequestRecord,
    exact_percentile,
)
from repro.serving.simulator import ServingScenario, ServingSimulator, compare_schemes

__all__ = [
    "ArrivalProcess",
    "BatchPlan",
    "ContinuousBatcher",
    "FixedRateArrivals",
    "InferenceRequest",
    "LatencyReport",
    "PoissonArrivals",
    "PreemptionRecord",
    "PriorityClassStats",
    "RequestRecord",
    "SHED_POLICIES",
    "ServingScenario",
    "ServingSimulator",
    "ShedRecord",
    "TraceArrivals",
    "compare_schemes",
    "exact_percentile",
]
