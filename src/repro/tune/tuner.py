"""The tuner: one strategy over one space through one ``Session``.

:meth:`Tuner.tune` measures per-arch StreamSync baselines on the default
tile, drives the strategy's candidate visits through
:meth:`Session.sweep <repro.pipeline.session.Session.sweep>`, and folds
everything into a :class:`TuneReport`: the full trial log (one
:class:`Trial` per evaluation, including cached replays), per-arch
winners, cache-exploitation counters and ready-to-commit
:class:`~repro.tune.table.TunedEntry` rows.

Because every measurement goes through the session's sweep caches, a
rerun of the same tune against a warm session (or a session backed by a
populated :class:`~repro.service.store.SweepResultStore`) replays every
previously-visited point — ``novel_simulations == 0`` — and produces a
bit-identical trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TuningError
from repro.gpu.arch import resolve_arch
from repro.pipeline.session import Session, SweepResult
from repro.tune.space import Candidate, DEFAULT_TILE, SearchSpace
from repro.tune.strategies import GridSearch, SearchStrategy
from repro.tune.table import TunedEntry


@dataclass(frozen=True)
class Trial:
    """One evaluation the tuner performed (baselines use ``rung=-1``)."""

    rung: int
    arch: str
    tile: str
    policy: str
    scheme: str
    time_us: float
    wait_time_us: float
    #: Replayed from the sweep cache / result store instead of simulated.
    cached: bool

    @property
    def is_baseline(self) -> bool:
        return self.rung < 0


@dataclass(frozen=True)
class TuneReport:
    """Everything one :meth:`Tuner.tune` run produced."""

    space: str
    strategy: str
    trials: Tuple[Trial, ...]
    #: Ready-to-commit table rows, one per arch (winner of the search).
    entries: Tuple[TunedEntry, ...]
    #: Sweep-cache replays during this run (in-memory tier).
    cache_hits: int
    #: Result-store replays during this run (persistent tier).
    store_hits: int
    #: Points that actually simulated (cache+store misses).
    novel_simulations: int

    def baseline_for(self, arch: str) -> float:
        """StreamSync time on the default tile for ``arch``."""
        for trial in self.trials:
            if trial.is_baseline and trial.arch == arch:
                return trial.time_us
        raise TuningError(f"no baseline was measured for arch {arch!r}")

    def best_for(self, arch: str) -> Trial:
        """The fastest search trial for ``arch`` (earliest on ties)."""
        best: Optional[Trial] = None
        for trial in self.trials:
            if trial.is_baseline or trial.arch != arch:
                continue
            if best is None or trial.time_us < best.time_us:
                best = trial
        if best is None:
            raise TuningError(f"the search visited no candidates for arch {arch!r}")
        return best

    def winners(self) -> Dict[str, Trial]:
        """Per-arch winning trials, keyed by resolved arch name."""
        arches: List[str] = []
        for trial in self.trials:
            if not trial.is_baseline and trial.arch not in arches:
                arches.append(trial.arch)
        return {arch: self.best_for(arch) for arch in arches}

    def trajectory(self) -> Tuple[Tuple[int, str, str, str, float], ...]:
        """The search's visit log: ``(rung, arch, tile, policy, time)``.

        Excludes the ``cached`` flag, so a cold run and its warm replay
        produce *equal* trajectories — the determinism tests' anchor.
        """
        return tuple(
            (trial.rung, trial.arch, trial.tile, trial.policy, trial.time_us)
            for trial in self.trials
            if not trial.is_baseline
        )

    def summary(self) -> str:
        lines = [
            f"tuned {self.space} [{self.strategy}]: "
            f"{len(self.trials)} trials, {self.novel_simulations} simulated, "
            f"{self.cache_hits} cache hits, {self.store_hits} store hits"
        ]
        for entry in self.entries:
            improvement = entry.improvement_vs_default
            vs_default = (
                f", {improvement:+.1%} vs default tile"
                if improvement is not None
                else ""
            )
            lines.append(
                f"  {entry.arch}: {entry.tile} + {entry.policy} = "
                f"{entry.time_us:.2f}us (streamsync {entry.baseline_us:.2f}us"
                f"{vs_default})"
            )
        return "\n".join(lines)


class Tuner:
    """Runs search strategies over a :class:`SearchSpace`.

    ``session`` defaults to a fresh :class:`Session`; pass a long-lived
    one (optionally backed by a ``result_store``) to make reruns replay
    from cache.  ``mode`` / ``workers`` forward to every underlying
    :meth:`Session.sweep` call; both modes are bit-identical.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        result_store=None,
        mode: str = "serial",
        workers: Optional[int] = None,
    ) -> None:
        if session is None:
            session = Session(result_store=result_store)
        elif result_store is not None and session.result_store is None:
            session.result_store = result_store
        self.session = session
        self.mode = mode
        self.workers = workers

    # ------------------------------------------------------------------
    def tune(self, space: SearchSpace, strategy: Optional[SearchStrategy] = None) -> TuneReport:
        """Run ``strategy`` (default :class:`GridSearch`) over ``space``."""
        strategy = strategy if strategy is not None else GridSearch()
        session = self.session
        hits0 = session.sweep_cache_hits
        misses0 = session.sweep_cache_misses
        store0 = session.sweep_store_hits

        trials: List[Trial] = []

        # Per-arch StreamSync baselines on the default tile, recorded as
        # rung -1 trials.  The default-tile graph keeps the workload's
        # natural name, so these sweep entries are identical to the ones
        # an untuned `Session.sweep` of the workload would produce.
        baseline_graph = space.graph_for(DEFAULT_TILE)
        baseline_work = [
            (baseline_graph, space.baseline_point(arch)) for arch in space.arches
        ]
        for (graph, point), result in zip(
            baseline_work,
            session.sweep(baseline_work, mode=self.mode, workers=self.workers),
        ):
            trials.append(self._trial(-1, DEFAULT_TILE.label, point.scheme, result))

        def evaluate(batch: Sequence[Candidate], rung: int) -> List[float]:
            work = [(space.graph_for(c.tile), space.point_for(c)) for c in batch]
            results = session.sweep(work, mode=self.mode, workers=self.workers)
            times: List[float] = []
            for candidate, result in zip(batch, results):
                trials.append(
                    self._trial(rung, candidate.tile.label, space.scheme, result)
                )
                times.append(result.total_time_us)
            return times

        strategy.run(space.candidates(), evaluate)

        report = TuneReport(
            space=space.name,
            strategy=strategy.name,
            trials=tuple(trials),
            entries=self._entries(space, trials),
            cache_hits=session.sweep_cache_hits - hits0,
            store_hits=session.sweep_store_hits - store0,
            novel_simulations=session.sweep_cache_misses - misses0,
        )
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def _trial(rung: int, tile: str, scheme: str, result: SweepResult) -> Trial:
        if not isinstance(result, SweepResult):
            raise TuningError(
                f"tuning requires successful evaluations, got {result!r}"
            )
        return Trial(
            rung=rung,
            arch=result.arch_name,
            tile=tile,
            policy=result.policy_label,
            scheme=scheme,
            time_us=result.total_time_us,
            wait_time_us=result.total_wait_time_us,
            cached=result.cached,
        )

    @staticmethod
    def _entries(space: SearchSpace, trials: Sequence[Trial]) -> Tuple[TunedEntry, ...]:
        tiles = {tile.label: tile for tile in space.tile_choices}
        tiles.setdefault(DEFAULT_TILE.label, DEFAULT_TILE)
        entries: List[TunedEntry] = []
        for arch in space.arches:
            arch_name = resolve_arch(arch).name
            best: Optional[Trial] = None
            baseline: Optional[Trial] = None
            default_best: Optional[float] = None
            for trial in trials:
                if trial.arch != arch_name:
                    continue
                if trial.is_baseline:
                    if baseline is None:
                        baseline = trial
                    continue
                if best is None or trial.time_us < best.time_us:
                    best = trial
                if trial.tile == DEFAULT_TILE.label and (
                    default_best is None or trial.time_us < default_best
                ):
                    default_best = trial.time_us
            if best is None or baseline is None:
                continue  # the strategy never visited this arch
            entries.append(
                TunedEntry(
                    workload=space.name,
                    arch=arch_name,
                    policy=best.policy,
                    time_us=best.time_us,
                    baseline_us=baseline.time_us,
                    default_best_us=default_best,
                    tile=best.tile,
                    configs=tiles[best.tile].configs,
                )
            )
        return tuple(entries)
