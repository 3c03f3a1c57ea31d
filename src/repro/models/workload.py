"""Common machinery for model workloads.

A *workload* is a short chain of dependent kernels (an MLP, an attention
block, a pair of Conv2Ds...).  Each workload describes its kernels and
dependence structure **once**, as an immutable
:class:`~repro.pipeline.graph.PipelineGraph` (:meth:`Workload.to_graph`);
execution — under StreamSync, Stream-K or a cuSync policy family — is the
job of :mod:`repro.pipeline`, whose backends bind per-run synchronization
state to the graph's kernels without ever rebuilding them.  Call
``workload.to_graph()`` once and run the graph through
:func:`repro.pipeline.run` or a :class:`~repro.pipeline.session.Session`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional

import numpy as np

from repro.gpu.arch import ArchLike, TESLA_V100, resolve_arch
from repro.gpu.costmodel import CostModel
from repro.cusync.optimizations import OptimizationFlags
from repro.pipeline import graph as pipeline_graph
from repro.pipeline.executors import PipelineResult, PolicyLike
from repro.pipeline.session import Session, SweepPoint, run as run_graph


def _resolve_tuned_pair(workload_key: str, arch: ArchLike, stage1: str, stage2: str):
    """Resolve a two-GeMM workload's tuned tile pair, or ``None``.

    Shared by the MLP constructors' ``tuned=True`` paths: looks
    ``workload_key`` up in the committed tuned-config table
    (:func:`repro.tune.table.tuned_gemm_configs`, imported lazily —
    models must stay importable without the tune package loaded) and
    returns ``(config1, config2)`` when the entry covers both stages.
    ``None`` means "use the workload's defaults": no entry (explicit
    V100 fallback, warned once per (workload, arch) off-V100), or the
    default tile won the search.
    """
    from repro.tune.table import tuned_gemm_configs

    configs = tuned_gemm_configs(workload_key, arch)
    if configs is None:
        return None
    first, second = configs.get(stage1), configs.get(stage2)
    if first is None or second is None:
        return None
    return (first, second)


class Workload(ABC):
    """A chain of dependent kernels, described once and run under any scheme.

    Whether a run is functional, and how it is calibrated, are properties of
    the run: the timing graph runs functionally with ``functional=True,
    tensors=workload.input_tensors()``, and on a custom cost model with
    ``run(cost_model=)`` or ``Session(cost_model=)``.
    """

    def __init__(self, arch: ArchLike = TESLA_V100) -> None:
        #: Always a resolved instance: registered names and
        #: :class:`~repro.gpu.arch.ArchSpec` values are accepted too.
        self.arch = resolve_arch(arch)

    @property
    def cost_model(self) -> CostModel:
        """The default model of :attr:`arch`, which :meth:`to_graph` builds
        kernels over (so their occupancy reads right before a run)."""
        return CostModel(arch=self.arch)

    # ------------------------------------------------------------------
    # Subclass responsibility: the graph description
    # ------------------------------------------------------------------
    @abstractmethod
    def to_graph(self) -> pipeline_graph.PipelineGraph:
        """Create the workload's pipeline graph (fresh kernels).

        The returned graph is immutable and reusable: run it as many times
        as needed, under every scheme, policy and architecture — kernels
        are bound per execution, never rebuilt.
        """

    def input_tensors(self, rng: Optional[np.random.Generator] = None) -> Dict[str, np.ndarray]:
        """Input arrays for functional simulation (weights, activations)."""
        return {}

    @property
    def name(self) -> str:
        return type(self).__name__

    # ------------------------------------------------------------------
    # Convenience for benchmarks
    # ------------------------------------------------------------------
    def _run(
        self,
        graph: pipeline_graph.PipelineGraph,
        scheme: str,
        policy: PolicyLike = "TileSync",
        optimizations: Optional[OptimizationFlags] = None,
    ) -> PipelineResult:
        return run_graph(
            graph, scheme=scheme, policy=policy, optimizations=optimizations, arch=self.arch
        )

    def improvement_over_streamsync(
        self, policy: PolicyLike = "TileSync", optimizations: Optional[OptimizationFlags] = None
    ) -> float:
        """Fractional improvement of cuSync over StreamSync (0.1 == 10%)."""
        graph = self.to_graph()
        baseline = self._run(graph, "streamsync").total_time_us
        synced = self._run(
            graph, "cusync", policy=policy, optimizations=optimizations
        ).total_time_us
        return (baseline - synced) / baseline

    def best_policy(
        self, policies: Optional[List[str]] = None, session: Optional[Session] = None
    ) -> Dict[str, float]:
        """Time every policy family and report times (plus the baselines).

        Points go through ``session``'s sweep cache, so a point the session
        already timed replays instead of re-simulating, and run on its cost
        model for the workload's architecture.  Without a session they are
        timed on a fresh default ``Session``.
        """
        policies = policies if policies is not None else ["TileSync", "RowSync"]
        if session is None:
            session = Session(arch=self.arch)
        graph = self.to_graph()

        def time_us(scheme: str, policy: Optional[str] = None) -> float:
            point = SweepPoint(scheme=scheme, policy=policy, arch=self.arch)
            return session.sweep_point(graph, point).total_time_us

        results = {"StreamSync": time_us("streamsync")}
        for family in policies:
            results[family] = time_us("cusync", family)
        return results
