"""The benchmark's three workloads.

Each workload is a class with two steps:

* ``setup(seed)`` builds the inputs the program receives: graphs, the
  serving scenario with its pre-generated arrivals, the experiment call
  list.  It is timed as part of ``setup_s``.
* ``run(inputs, scratch, timer)`` makes one measured pass: a *cold*
  phase on fresh sessions (and, for ``sweep_store``, an empty store in
  ``scratch``), then a *warm* phase that replays the same work in the
  same process (``sweep_store`` replays it three times and keeps the
  fastest).  It returns the wall time of each part of each phase,
  the outputs the correctness check compares, and the operation counts
  behind ``attempted``/``failed``.

Only ``serving_poisson`` reads the seed: it draws the Poisson arrival
times and the prompt/decode lengths.  The paper figures and the sweep
grid are fixed inputs, so their outputs must be the same for every seed.
"""

from __future__ import annotations

import asyncio
import contextlib
import heapq
import json
import math
import statistics
import time
from typing import Any, Callable, ContextManager, Dict, List, Tuple

DEFAULT_SEED = 7

#: ``phase(label)`` returns a context manager around one phase of a pass;
#: the tracer uses it to split spans into ``cold`` and ``warm``.
Phase = Callable[[str], ContextManager[None]]


def no_phase(label: str) -> ContextManager[None]:
    return contextlib.nullcontext()


def plain(value: Any) -> Any:
    """``value`` as plain JSON types (tuples become lists, keys strings)."""
    return json.loads(json.dumps(value))


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


#: Rounds of one calibration loop: 10-20 ms on the machine the benchmark
#: was built on.
CALIBRATION_ROUNDS = 10_000
#: Host times are reported in seconds at the speed where
#: :func:`calibration_loop` reads this.
REFERENCE_LOOP_S = 0.01
#: How closely the program's time follows the loop's.  When the host is
#: busy the program slows a little less than the loop; over ten runs of
#: each workload, scaling by the loop to this power spread the runs least
#: (0.7 suited serving_poisson best, 1.0 sweep_store).
HOST_EXPONENT = 0.9


class _Event:
    __slots__ = ("time", "block", "unit")

    def __init__(self, time: float, block: int, unit: int) -> None:
        self.time = time
        self.block = block
        self.unit = unit


def calibration_loop() -> float:
    """Seconds a fixed pure-Python event loop takes right now.

    Slotted objects, a heap, tuple keys and a dict of floats: the kind of
    work the simulator does, but none of the program's code, so the loop
    measures the machine's speed of the moment and never the program's.
    The median of three runs, so a burst during one does not count.
    """
    return statistics.median(_event_loop(CALIBRATION_ROUNDS) for _ in range(3))


def at_reference_speed(seconds: float, loop_s: float) -> float:
    """``seconds`` taken while :func:`calibration_loop` read ``loop_s``,
    scaled to the speed where it reads :data:`REFERENCE_LOOP_S`."""
    return seconds * (REFERENCE_LOOP_S / loop_s) ** HOST_EXPONENT


def _event_loop(rounds: int) -> float:
    start = time.perf_counter()
    heap: List[Tuple[float, int, _Event]] = []
    done: Dict[Tuple[int, int], float] = {}
    clock = 0.0
    for index in range(rounds):
        event = _Event(clock + (index * 7919 % 97) * 0.5, index % 80, index % 13)
        heapq.heappush(heap, (event.time, index, event))
        if len(heap) > 64:
            clock, _, first = heapq.heappop(heap)
            key = (first.unit, first.block)
            done[key] = done.get(key, 0.0) + clock - first.time * 0.5
    sorted(done.items(), key=lambda item: item[1])
    return time.perf_counter() - start


class Timer:
    """Times the parts of one pass.

    ``timer("cold", "grid", call)`` runs ``call`` inside ``phase("cold")``
    and records its wall time as the part ``cold/grid``.  A part timed
    more than once in a pass keeps its best time in ``parts`` and the
    total in ``spent``.

    With ``calibrate``, :func:`calibration_loop` also runs between parts,
    and ``scaled`` holds each part's wall time :func:`at_reference_speed`,
    taking the mean of the loops just before and just after the part.  The
    shared machine changes speed by tens of percent from one second to the
    next and for minutes at a time; scaling cancels much of that, the raw
    time none of it.
    """

    def __init__(self, phase: Phase = no_phase, calibrate: bool = False) -> None:
        self.phase = phase
        self.calibrate = calibrate
        self.parts: Dict[str, float] = {}
        self.spent: Dict[str, float] = {}
        self.scaled: Dict[str, float] = {}
        self._loop_s = 0.0

    def __call__(self, phase: str, part: str, call: Callable[[], Any]) -> Any:
        if self.calibrate and not self._loop_s:
            self._loop_s = calibration_loop()
        with self.phase(phase):
            start = time.perf_counter()
            value = call()
            elapsed = time.perf_counter() - start
        key = f"{phase}/{part}"
        self.parts[key] = min(self.parts.get(key, math.inf), elapsed)
        self.spent[key] = self.spent.get(key, 0.0) + elapsed
        if self.calibrate:
            after = calibration_loop()
            scaled = at_reference_speed(elapsed, (self._loop_s + after) / 2)
            self.scaled[key] = min(self.scaled.get(key, math.inf), scaled)
            self._loop_s = after
        return value


class PassResult:
    """What one measured pass of a workload produced."""

    def __init__(
        self,
        parts: Dict[str, float],
        outputs: Dict[str, Any],
        attempted: int,
        failed: int,
        problems: List[str],
        facts: Dict[str, float],
    ) -> None:
        #: Wall seconds per ``<phase>/<part>``, from :class:`Timer`.
        self.parts = parts
        #: Compared against the stored reference (plain JSON types).
        self.outputs = outputs
        self.attempted = attempted
        self.failed = failed
        #: Human-readable reasons for every failed operation.
        self.problems = problems
        #: Deterministic figures derived from the outputs (``sim.*``) and
        #: counts the per-layer metrics divide by.
        self.facts = facts


# ----------------------------------------------------------------------
# paper_figures
# ----------------------------------------------------------------------
class PaperFigures:
    """Every table and figure the repo reproduces on V100.

    Pure simulation through ``Session.run``: no sweep cache, no store, no
    serving.  The warm phase regenerates the same figures in the same
    process, so it only gains from caches the program keeps per process.
    """

    name = "paper_figures"
    seeded = False

    #: ``(experiment function, keyword arguments)`` in run order.
    CALLS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
        ("table4_mlp", {}),
        ("table5_mlp_optimizations", {}),
        ("table5_conv_optimizations", {}),
        ("figure6_llm", {"model": "gpt3", "block": "mlp"}),
        ("figure6_llm", {"model": "gpt3", "block": "attention"}),
        ("figure6_llm", {"model": "llama", "block": "mlp"}),
        ("figure6_llm", {"model": "llama", "block": "attention"}),
        ("figure7_conv", {"model": "resnet"}),
        ("figure7_conv", {"model": "vgg"}),
        ("figure8_end_to_end", {}),
    )

    def setup(self, seed: int, small: bool = False) -> Dict[str, Any]:
        from repro.bench import experiments
        from repro.tune.table import default_table

        default_table()
        calls = self.CALLS
        if small:
            calls = (("table4_mlp", {"batch_sizes": (64, 256)}),)
        return {"experiments": experiments, "calls": calls}

    def run(self, inputs: Dict[str, Any], scratch: str, timer: Timer) -> PassResult:
        experiments = inputs["experiments"]
        calls = inputs["calls"]

        def regenerate(phase: str) -> List[Any]:
            # Looked up on the module at call time, so a tracer that
            # patches the module attribute sees every call.
            return [
                timer(phase, f"{index}.{name}", lambda: getattr(experiments, name)(**kwargs))
                for index, (name, kwargs) in enumerate(calls)
            ]

        cold = regenerate("cold")
        warm = regenerate("warm")
        figures = {
            f"{name}({','.join(f'{k}={v}' for k, v in sorted(kwargs.items()))})": plain(rows)
            for (name, kwargs), rows in zip(calls, cold)
        }
        problems = []
        attempted = failed = 0
        for (name, _), cold_rows, warm_rows in zip(calls, cold, warm):
            attempted += 2 * len(cold_rows)
            for index, (a, b) in enumerate(zip(plain(cold_rows), plain(warm_rows))):
                if a != b:
                    failed += 1
                    problems.append(f"{name} row {index}: warm regeneration differs from cold")
        return PassResult(
            parts=timer.parts,
            outputs={"figures": figures},
            attempted=attempted,
            failed=failed,
            problems=problems,
            facts={"sim.speedup": self.speedup(cold)},
        )

    @staticmethod
    def units(outputs: Dict[str, Any]) -> Dict[str, Tuple[Any, int]]:
        """Checked units of the outputs: one figure row is one operation."""
        return {
            f"{figure}[{index}]": (row, 1)
            for figure, rows in outputs["figures"].items()
            for index, row in enumerate(rows)
        }

    @staticmethod
    def speedup(tables: List[List[Dict[str, Any]]]) -> float:
        """Geomean of StreamSync ÷ best-cuSync time over every figure point."""
        ratios = []
        for rows in tables:
            for row in rows:
                baseline = row.get("streamsync_us")
                if baseline is None:
                    continue
                if "cusync_us" in row:
                    ratios.append(baseline / row["cusync_us"])
                elif "best" in row:
                    ratios.append(1.0 / (1.0 - row["best"]))
        return geomean(ratios)


# ----------------------------------------------------------------------
# serving_poisson
# ----------------------------------------------------------------------
#: Report fields that count cache traffic rather than describe the
#: served requests; they legitimately differ between cold and warm runs.
CACHE_FIELDS = ("sweep_cache_hits", "sweep_cache_misses", "store_hits")


class ServingPoisson:
    """Open-loop Poisson serving in simulated time, cold then warm.

    The loop is open in *simulated* time: arrivals are fixed up front by
    the seed and never wait for the server.  Each scheme runs cold on a
    fresh ``Session``, then warm through the same session, where every
    batch shape replays from the sweep cache.
    """

    name = "serving_poisson"
    seeded = True

    REQUESTS = 4000
    RATE_RPS = 400.0
    SCHEMES = ("streamsync", "cusync")
    POLICY = "TileSync"

    def setup(self, seed: int, small: bool = False) -> Dict[str, Any]:
        from repro.models.config import TransformerConfig
        from repro.serving import PoissonArrivals, ServingScenario, TraceArrivals
        from repro.tune.table import default_table

        default_table()
        requests = 200 if small else self.REQUESTS
        arrivals = PoissonArrivals(
            rate_rps=self.RATE_RPS, prompt_tokens=(16, 96), decode_tokens=(2, 8), seed=seed
        ).generate(requests)
        scenario = ServingScenario(
            arrivals=TraceArrivals(arrivals),
            requests=requests,
            config=TransformerConfig(name="srv-small", hidden=256, layers=2, tensor_parallel=8),
            max_batch=4,
            max_kv_tokens=2048,
            max_prefill_tokens=256,
            slo_us=5_000.0,
        )
        return {"scenario": scenario}

    def run(self, inputs: Dict[str, Any], scratch: str, timer: Timer) -> PassResult:
        from repro.pipeline import Session
        from repro.serving import ServingSimulator

        scenario = inputs["scenario"]
        reports = {}
        for scheme in self.SCHEMES:
            simulator = ServingSimulator(scheme=scheme, policy=self.POLICY, session=Session())
            cold = timer("cold", scheme, lambda: simulator.run(scenario))
            warm = timer("warm", scheme, lambda: simulator.run(scenario))
            reports[scheme] = (cold, warm)

        problems = []
        attempted = failed = 0
        for scheme, (cold, warm) in reports.items():
            for phase, report in (("cold", cold), ("warm", warm)):
                attempted += scenario.requests
                missing = scenario.requests - report.completed
                if missing:
                    failed += missing
                    problems.append(f"{scheme} {phase}: {missing} request(s) not completed")
            if self._latencies(cold) != self._latencies(warm):
                failed += scenario.requests
                problems.append(f"{scheme}: warm report differs from cold")

        cold_cusync = reports["cusync"][0]
        cold_streamsync = reports["streamsync"][0]
        facts = {
            "sim.speedup": cold_streamsync.p99_total_us / cold_cusync.p99_total_us,
            "sim.p50_us": cold_cusync.p50_total_us,
            "sim.p99_us": cold_cusync.p99_total_us,
            "sim.p99_gain": 1.0 - cold_cusync.p99_total_us / cold_streamsync.p99_total_us,
            "sim.goodput_rps": cold_cusync.goodput_rps,
            "iterations.warm": float(sum(warm.iterations for _, warm in reports.values())),
            "simulations.cold": float(
                sum(cold.sweep_cache_misses for cold, _ in reports.values())
            ),
        }
        outputs = {
            scheme: {"cold": plain(cold.summary()), "warm": plain(warm.summary())}
            for scheme, (cold, warm) in reports.items()
        }
        return PassResult(timer.parts, outputs, attempted, failed, problems, facts)

    @staticmethod
    def units(outputs: Dict[str, Any]) -> Dict[str, Tuple[Any, int]]:
        """Checked units: one report summary stands for all its requests."""
        return {
            f"{scheme}.{phase}": (summary, summary["requests"])
            for scheme, phases in outputs.items()
            for phase, summary in phases.items()
        }

    @staticmethod
    def _latencies(report) -> Dict[str, Any]:
        summary = plain(report.summary())
        for name in CACHE_FIELDS:
            summary.pop(name, None)
        return summary


# ----------------------------------------------------------------------
# sweep_store
# ----------------------------------------------------------------------
class SweepStore:
    """The arch-comparison grid and an autotune against one disk store.

    Cold: the 68-point grid goes through a ``SweepService`` backed by a
    ``SweepResultStore`` in an empty directory, then a successive-halving
    ``Tuner`` runs on a session that shares the store.  Warm: brand-new
    session, service and store handles replay both clients from the same
    directory, :attr:`WARM_REPLAYS` times.  Graphs whose range maps are closures have no store key, so
    their points bypass the store and simulate again on the warm pass.
    """

    name = "sweep_store"
    seeded = False

    ARCHES = ("V100", "A100", "H100-SXM", "RTX-4090")
    #: The service's worker pool; one thread keeps the schedule fixed.
    MAX_PARALLEL = 1
    #: Warm replays per pass, each through new handles on the same store.
    #: The timer keeps the fastest, which steadies the short warm phase.
    WARM_REPLAYS = 3

    def setup(self, seed: int, small: bool = False) -> Dict[str, Any]:
        from repro.models.attention import Attention
        from repro.models.config import GPT3_145B, LLAMA_65B, RESNET38_LAYERS, VGG19_LAYERS
        from repro.models.conv_layers import ConvChain
        from repro.models.llama_mlp import LlamaMlp
        from repro.models.mlp import GptMlp
        from repro.pipeline import sweep_archs
        from repro.tune import gpt3_mlp_space
        from repro.tune.presets import mlp_tile_grid
        from repro.tune.table import default_table

        default_table()
        resnet = {spec.channels: spec for spec in RESNET38_LAYERS}[256]
        vgg = {spec.channels: spec for spec in VGG19_LAYERS}[256]
        workloads = [
            (GptMlp(config=GPT3_145B, batch_seq=512), ("TileSync", "RowSync")),
            (LlamaMlp(config=LLAMA_65B, batch_seq=512), ("TileSync", "RowSync", "StridedTileSync")),
            (
                Attention(config=GPT3_145B, batch=1, seq=512, cached=0),
                ("RowSync", "TileSync", "StridedTileSync"),
            ),
            (ConvChain(resnet, batch=1), ("RowSync", "Conv2DTileSync")),
            (ConvChain(vgg, batch=1), ("RowSync", "Conv2DTileSync")),
        ]
        arches = self.ARCHES
        if small:
            workloads = [workloads[0], workloads[1]]
            arches = ("V100",)
        work = []
        for workload, families in workloads:
            work.extend(
                sweep_archs(
                    workload.to_graph(), arches, policies=families, schemes=("streamsync", "cusync")
                )
            )
        if small:
            space = gpt3_mlp_space(arches=("A100",), tile_choices=mlp_tile_grid("mlp_gemm1", "mlp_gemm2")[:3])
        else:
            space = gpt3_mlp_space()
        return {"work": work, "space": space}

    def run(self, inputs: Dict[str, Any], scratch: str, timer: Timer) -> PassResult:
        work = inputs["work"]
        space = inputs["space"]
        cold_rows, cold_tune = self._clients(work, space, scratch, timer, "cold")
        replays = [self._clients(work, space, scratch, timer, "warm") for _ in range(self.WARM_REPLAYS)]

        problems = []
        attempted = (1 + len(replays)) * (len(work) + len(cold_tune.trials))
        failed = 0
        for phase, (rows, _) in [("cold", (cold_rows, cold_tune))] + [("warm", replay) for replay in replays]:
            for index, row in enumerate(rows):
                if row is None:
                    failed += 1
                    problems.append(f"{phase} grid point {index} did not return a result")
        for warm_rows, warm_tune in replays:
            for index, (a, b) in enumerate(zip(cold_rows, warm_rows)):
                if a != b:
                    failed += 1
                    problems.append(f"grid point {index}: store replay differs from fresh simulation")
            if warm_tune.trajectory() != cold_tune.trajectory():
                failed += len(cold_tune.trials)
                problems.append("tune trajectory: store replay differs from fresh search")

        cusync = [row for row in cold_rows if row is not None and row[1] == "cusync"]
        facts = {
            "sim.speedup": self.speedup(cold_rows),
            "sim.wait_share": sum(row[5] for row in cusync) / sum(row[4] for row in cusync),
            "simulations.cold": float(len(work) + cold_tune.novel_simulations),
        }
        outputs = {
            "grid": cold_rows,
            "tune": plain(
                {
                    "trajectory": cold_tune.trajectory(),
                    "winners": [
                        [entry.arch, entry.tile, entry.policy, entry.time_us, entry.baseline_us]
                        for entry in cold_tune.entries
                    ],
                }
            ),
        }
        return PassResult(timer.parts, outputs, attempted, failed, problems, facts)

    @staticmethod
    def units(outputs: Dict[str, Any]) -> Dict[str, Tuple[Any, int]]:
        """Checked units: one grid point or one tune trial is one operation."""
        units = {f"grid[{index}]": (row, 1) for index, row in enumerate(outputs["grid"])}
        for part in ("trajectory", "winners"):
            for index, entry in enumerate(outputs["tune"][part]):
                units[f"tune.{part}[{index}]"] = (entry, 1)
        return units

    def _clients(self, work, space, scratch: str, timer: Timer, phase: str):
        from repro.pipeline import Session, SweepResult
        from repro.service import SweepResultStore, SweepService
        from repro.tune import SuccessiveHalving, Tuner

        store = SweepResultStore(scratch)

        async def grid():
            with SweepService(
                session=Session(), store=store, max_parallel=self.MAX_PARALLEL
            ) as service:
                return await service.sweep(list(work))

        results = timer(phase, "grid", lambda: asyncio.run(grid()))
        rows = [
            plain(
                [
                    result.graph_label,
                    result.scheme,
                    result.policy_label,
                    result.arch_name,
                    result.total_time_us,
                    result.total_wait_time_us,
                    result.kernel_durations_us,
                ]
            )
            if isinstance(result, SweepResult)
            else None
            for result in results
        ]
        tuner = Tuner(session=Session(result_store=store), mode="serial")
        report = timer(phase, "tune", lambda: tuner.tune(space, SuccessiveHalving(eta=2)))
        return rows, report

    @staticmethod
    def speedup(rows: List[Any]) -> float:
        """Geomean over (graph, arch) of StreamSync ÷ best-cuSync time."""
        baseline: Dict[Tuple[str, str], float] = {}
        best: Dict[Tuple[str, str], float] = {}
        for row in rows:
            if row is None:
                continue
            label, scheme, _, arch, total = row[:5]
            key = (label, arch)
            if scheme == "streamsync":
                baseline[key] = total
            else:
                best[key] = min(best.get(key, math.inf), total)
        return geomean([baseline[key] / best[key] for key in baseline if key in best])


WORKLOADS = {cls.name: cls for cls in (PaperFigures, ServingPoisson, SweepStore)}
