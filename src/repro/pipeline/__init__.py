"""The declarative pipeline API: one immutable graph, pluggable backends.

This package is the user-facing entry point for describing and executing a
DAG of dependent kernels (the paper's core abstraction) without rebuilding
kernels per run:

* :class:`PipelineGraph` / :class:`StageSpec` / :class:`Edge` — the
  immutable, validated graph description (:mod:`repro.pipeline.graph`);
* :class:`Executor` + the ``streamsync`` / ``streamk`` / ``cusync``
  backends (:mod:`repro.pipeline.executors`);
* :func:`run` and :class:`Session` (with :meth:`Session.sweep`) — one-shot
  and cached repeated execution (:mod:`repro.pipeline.session`).

Quick start::

    from repro.pipeline import PipelineGraph, StageSpec, Edge, Session

    graph = PipelineGraph(
        stages=[StageSpec("gemm1", producer), StageSpec("gemm2", consumer)],
        edges=[Edge("gemm1", "gemm2", tensor="XW1")],
    )
    session = Session()
    baseline = session.run(graph, scheme="streamsync")
    synced = session.run(graph, scheme="cusync", policy="TileSync")
"""

from repro.cusync.policies import (
    PolicyAssignment,
    PolicyContext,
    PolicySpec,
    register_policy,
    registered_policies,
)
from repro.gpu.arch import (
    ArchLike,
    ArchSpec,
    register_arch,
    registered_archs,
    resolve_arch,
)
from repro.pipeline.graph import Edge, PipelineGraph, StageSpec, linear_graph
from repro.pipeline.executors import (
    CuSyncBackend,
    ExecutionContext,
    Executor,
    PipelineResult,
    PolicyLike,
    StreamKBackend,
    StreamSyncBackend,
    auto_flags,
    available_schemes,
    get_executor,
    policy_context,
    resolve_order,
    resolve_policy,
)
from repro.pipeline.session import (
    Session,
    SweepFailure,
    SweepPoint,
    SweepResult,
    run,
    sweep_archs,
    sweep_policies,
)

__all__ = [
    "PipelineGraph",
    "StageSpec",
    "Edge",
    "linear_graph",
    "Executor",
    "ExecutionContext",
    "StreamSyncBackend",
    "StreamKBackend",
    "CuSyncBackend",
    "PipelineResult",
    "PolicyLike",
    "PolicySpec",
    "PolicyAssignment",
    "PolicyContext",
    "register_policy",
    "registered_policies",
    "policy_context",
    "auto_flags",
    "available_schemes",
    "get_executor",
    "resolve_policy",
    "resolve_order",
    "ArchLike",
    "ArchSpec",
    "register_arch",
    "registered_archs",
    "resolve_arch",
    "Session",
    "SweepFailure",
    "SweepPoint",
    "SweepResult",
    "run",
    "sweep_archs",
    "sweep_policies",
]
