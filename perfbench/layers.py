"""The layers the traced run times, and the per-layer metrics it reports.

Each layer is named after the module that holds it and is timed at the
public entry points listed in :func:`entry_points`.  The program itself
carries no instrumentation: the benchmark wraps these methods from the
outside for one traced pass and puts them back afterwards.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, List, Optional

from tracer import EntryPoint, Recorder, Span

#: Per-layer metrics in report order: ``name -> (unit, better)``.
PER_LAYER: Dict[str, tuple] = {
    "kernels.blocks_built": ("count", "lower"),
    "kernels.warm_blocks_built": ("count", "lower"),
    "kernels.self_s": ("s", "lower"),
    "kernels.us_per_block": ("us", "lower"),
    "simulator.calls": ("count", "lower"),
    "simulator.warm_calls": ("count", "lower"),
    "simulator.self_s": ("s", "lower"),
    "simulator.blocks_per_s": ("1/s", "higher"),
    "simulator.blocks_per_s_e2e": ("1/s", "higher"),
    "trace.calls": ("count", "lower"),
    "trace.self_s": ("s", "lower"),
    "executors.calls": ("count", "lower"),
    "executors.self_s": ("s", "lower"),
    "session.calls": ("count", "lower"),
    "session.self_s": ("s", "lower"),
    "session.cache_hit_ratio": ("ratio", "higher"),
    "graph.build.calls": ("count", "lower"),
    "graph.build.self_s": ("s", "lower"),
    "graph.fingerprint.calls": ("count", "lower"),
    "graph.fingerprint.self_s": ("s", "lower"),
    "serving.batcher.calls": ("count", "lower"),
    "serving.batcher.self_s": ("s", "lower"),
    "serving.graph_cache.calls": ("count", "lower"),
    "serving.graph_cache.self_s": ("s", "lower"),
    "serving.graph_cache.reuse_ratio": ("ratio", "higher"),
    "serving.simulator.self_s": ("s", "lower"),
    "serving.metrics.self_s": ("s", "lower"),
    "service.self_s": ("s", "lower"),
    "service.points_simulated": ("count", "lower"),
    "service.points_coalesced": ("count", "higher"),
    "store.key.calls": ("count", "lower"),
    "store.key.self_s": ("s", "lower"),
    "store.get.calls": ("count", "lower"),
    "store.get.self_s": ("s", "lower"),
    "store.put.calls": ("count", "lower"),
    "store.put.self_s": ("s", "lower"),
    "store.hit_ratio": ("ratio", "higher"),
    "store.bypass_ratio": ("ratio", "lower"),
    "tune.self_s": ("s", "lower"),
    "tune.novel_simulations": ("count", "lower"),
    "tune.cache_ratio": ("ratio", "higher"),
    "experiments.self_s": ("s", "lower"),
    "unattributed_s": ("s", "lower"),
    "traced_wall_s": ("s", "lower"),
    "tracing.overhead": ("ratio", "lower"),
    "sims_per_s": ("1/s", "higher"),
    "iterations_per_s": ("1/s", "higher"),
    "sim.speedup": ("ratio", "higher"),
    "sim.p50_us": ("us", "lower"),
    "sim.p99_us": ("us", "lower"),
    "sim.p99_gain": ("ratio", "higher"),
    "sim.goodput_rps": ("req/s", "higher"),
    "sim.wait_share": ("ratio", "lower"),
}

#: Layers whose self time is reported, in report order.
LAYERS = (
    "experiments", "tune", "service", "store.key", "store.get", "store.put",
    "serving.simulator", "serving.metrics", "serving.batcher", "serving.graph_cache",
    "session", "graph.build", "graph.fingerprint", "executors", "simulator", "kernels", "trace",
)


def _subclasses(cls: type) -> List[type]:
    """``cls`` and every subclass, each once."""
    found: List[type] = []
    pending = [cls]
    while pending:
        klass = pending.pop()
        if klass not in found:
            found.append(klass)
            pending.extend(klass.__subclasses__())
    return found


def _defined(cls: type, attribute: str) -> bool:
    value = cls.__dict__.get(attribute)
    function = getattr(value, "__func__", value)
    return value is not None and not getattr(function, "__isabstractmethod__", False)


def _under_service(span: Optional[Span]) -> bool:
    while span is not None:
        if span.layer == "service":
            return True
        span = span.parent
    return False


def _count_blocks(recorder: Recorder, simulator: Any, args: tuple, result: Any, parent: Optional[Span]) -> None:
    recorder.count("simulator.blocks", sum(launch.num_blocks for launch in args[1]))


def _noter(kind: str):
    def note(recorder: Recorder, instance: Any, args: tuple, result: Any, parent: Optional[Span]) -> None:
        recorder.note(kind, instance)

    return note


def _store_key(recorder: Recorder, session: Any, args: tuple, key: Any, parent: Optional[Span]) -> None:
    # Only the service's probes: the tuner's session probes its own
    # (always portable) points, which would dilute the grid's ratio.
    if _under_service(parent):
        recorder.count("store.key.service_probes")
        recorder.count("store.key.service_bypass", key is None)


def _store_get(recorder: Recorder, store: Any, args: tuple, result: Any, parent: Optional[Span]) -> None:
    recorder.count("store.get.hits", result is not None)


def _tune(recorder: Recorder, tuner: Any, args: tuple, report: Any, parent: Optional[Span]) -> None:
    recorder.count("tune.novel_simulations", report.novel_simulations)
    recorder.count("tune.trials", len(report.trials))
    recorder.count("tune.cached_trials", sum(trial.cached for trial in report.trials))


def entry_points() -> List[EntryPoint]:
    """Every method the traced run wraps, grouped by layer."""
    import repro.kernels  # noqa: F401  (registers every kernel class)
    import repro.models  # noqa: F401  (registers every workload class)
    from repro.bench import experiments
    from repro.gpu.simulator import GpuSimulator
    from repro.gpu.trace import ExecutionTrace
    from repro.kernels.base import TiledKernel
    from repro.models.serving import ServingGraphCache
    from repro.models.workload import Workload
    from repro.pipeline.executors import Executor
    from repro.pipeline.graph import PipelineGraph
    from repro.pipeline.session import Session
    from repro.service.jobs import SweepService
    from repro.service.store import SweepResultStore
    from repro.serving.batcher import ContinuousBatcher
    from repro.serving.metrics import LatencyReport
    from repro.serving.simulator import ServingSimulator
    from repro.tune.tuner import Tuner

    entries = [
        EntryPoint(cls, "build_block_program", f"{cls.__name__}.build_block_program", "kernels", leaf=True)
        for cls in _subclasses(TiledKernel)
        if _defined(cls, "build_block_program")
    ]
    entries.append(EntryPoint(GpuSimulator, "run", "GpuSimulator.run", "simulator", post=_count_blocks))
    entries += [
        EntryPoint(ExecutionTrace, attribute, f"ExecutionTrace.{attribute}", "trace", leaf=True)
        for attribute in ("blocks", "total_wait_time_us")
    ]
    entries += [
        EntryPoint(cls, "run", f"{cls.__name__}.run", "executors")
        for cls in _subclasses(Executor)
        if _defined(cls, "run")
    ]
    entries += [
        EntryPoint(Session, attribute, f"Session.{attribute}", "session", post=_noter("session"))
        for attribute in ("run", "sweep", "sweep_point")
    ]
    entries.append(EntryPoint(Session, "sweep_store_key", "Session.sweep_store_key", "store.key", post=_store_key))
    entries.append(
        EntryPoint(
            PipelineGraph, "structural_fingerprint", "PipelineGraph.structural_fingerprint", "graph.fingerprint",
            leaf=True,
        )
    )
    entries += [
        EntryPoint(cls, "to_graph", f"{cls.__name__}.to_graph", "graph.build")
        for cls in _subclasses(Workload)
        if _defined(cls, "to_graph")
    ]
    entries += [
        EntryPoint(ContinuousBatcher, attribute, f"ContinuousBatcher.{attribute}", "serving.batcher", leaf=True)
        for attribute in ("enqueue", "next_plan", "advance")
    ]
    entries.append(
        EntryPoint(
            ServingGraphCache, "graph_for", "ServingGraphCache.graph_for", "serving.graph_cache",
            post=_noter("graph_cache"),
        )
    )
    entries.append(EntryPoint(ServingSimulator, "run", "ServingSimulator.run", "serving.simulator"))
    entries.append(EntryPoint(LatencyReport, "from_records", "LatencyReport.from_records", "serving.metrics"))
    entries += [
        EntryPoint(SweepService, attribute, f"SweepService.{attribute}", "service", post=_noter("service"))
        for attribute in ("sweep", "submit")
    ]
    entries.append(EntryPoint(SweepResultStore, "get", "SweepResultStore.get", "store.get", leaf=True, post=_store_get))
    entries.append(EntryPoint(SweepResultStore, "put", "SweepResultStore.put", "store.put", leaf=True))
    entries.append(EntryPoint(Tuner, "tune", "Tuner.tune", "tune", post=_tune))
    entries += [
        EntryPoint(experiments, name, f"experiments.{name}", "experiments")
        for name, function in vars(experiments).items()
        if inspect.isfunction(function) and function.__module__ == experiments.__name__ and not name.startswith("_")
    ]
    return entries


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Metrics :func:`with_rates` derives from untraced time.
RATES = ("tracing.overhead", "sims_per_s", "iterations_per_s")


def measure(recorder: Recorder, facts: Dict[str, float]) -> Dict[str, float]:
    """The :data:`PER_LAYER` metrics of one traced pass, except :data:`RATES`.

    ``facts`` are the pass's deterministic figures.  Also returns
    ``simulator.cold_calls``, which :func:`with_rates` divides by.
    """
    layer_of = {entry.name: entry.layer for entry in recorder.entries}

    def calls_by_layer(calls: Dict[str, int]) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for name, count in calls.items():
            totals[layer_of[name]] = totals.get(layer_of[name], 0) + count
        return totals

    calls = calls_by_layer(recorder.calls)
    cold_calls = calls_by_layer(recorder.calls_in("cold"))
    warm_calls = calls_by_layer(recorder.calls_in("warm"))
    self_s = recorder.self_seconds()["all"]
    counters = recorder.counters
    wall = recorder.wall_seconds

    sessions = recorder.instances.get("session", {}).values()
    hits = sum(session.sweep_cache_hits for session in sessions)
    misses = sum(session.sweep_cache_misses for session in sessions)
    graph_caches = recorder.instances.get("graph_cache", {}).values()
    reuses = sum(cache.reuses for cache in graph_caches)
    builds = sum(cache.builds for cache in graph_caches)
    services = [service.stats() for service in recorder.instances.get("service", {}).values()]

    blocks = calls.get("kernels", 0)
    simulated_blocks = counters.get("simulator.blocks", 0)
    kernels_s = self_s.get("kernels", 0.0)
    simulator_s = self_s.get("simulator", 0.0)
    metrics = {
        "kernels.blocks_built": blocks,
        "kernels.warm_blocks_built": warm_calls.get("kernels", 0),
        "kernels.us_per_block": _ratio(kernels_s * 1e6, blocks),
        "simulator.calls": calls.get("simulator", 0),
        "simulator.warm_calls": warm_calls.get("simulator", 0),
        "simulator.blocks_per_s": _ratio(simulated_blocks, simulator_s),
        "simulator.blocks_per_s_e2e": _ratio(simulated_blocks, simulator_s + kernels_s),
        "session.cache_hit_ratio": _ratio(hits, hits + misses),
        "serving.graph_cache.reuse_ratio": _ratio(reuses, reuses + builds),
        "service.points_simulated": sum(stats["points_simulated"] for stats in services),
        "service.points_coalesced": sum(stats["points_coalesced"] for stats in services),
        "store.hit_ratio": _ratio(counters.get("store.get.hits", 0), calls.get("store.get", 0)),
        "store.bypass_ratio": _ratio(
            counters.get("store.key.service_bypass", 0), counters.get("store.key.service_probes", 0)
        ),
        "tune.novel_simulations": counters.get("tune.novel_simulations", 0),
        "tune.cache_ratio": _ratio(counters.get("tune.cached_trials", 0), counters.get("tune.trials", 0)),
        "unattributed_s": wall - sum(self_s.values()),
        "traced_wall_s": wall,
        "simulator.cold_calls": cold_calls.get("simulator", 0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics.setdefault(f"{layer}.calls", calls.get(layer, 0))
    for name in PER_LAYER:
        if name.startswith("sim."):
            metrics[name] = facts.get(name, 0.0)
    names = [name for name in PER_LAYER if name not in RATES] + ["simulator.cold_calls"]
    return {name: float(metrics[name]) for name in names}


def with_rates(raw: Dict[str, float], facts: Dict[str, float], untraced: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric: ``raw`` plus the :data:`RATES`.

    The rates divide by the untraced end-to-end ``cold_s``/``warm_s``/
    ``wall_s`` of the same run, so tracing never slows them down.
    """
    rates = {
        "tracing.overhead": _ratio(raw["traced_wall_s"], untraced["wall_s"]) - 1.0,
        "sims_per_s": _ratio(raw["simulator.cold_calls"], untraced["cold_s"]),
        "iterations_per_s": _ratio(facts.get("iterations.warm", 0.0), untraced["warm_s"]),
    }
    return {name: rates[name] if name in rates else raw[name] for name in PER_LAYER}
