"""cuSync: fine-grained synchronization of dependent kernels.

This package is the reproduction of the paper's primary contribution.  It
provides:

* :class:`~repro.cusync.custage.CuStage` — per-kernel synchronization state
  (tile order, wait/post mapping, wait-kernel release);
* the synchronization policies of Section III-E / IV
  (:mod:`repro.cusync.policies`): TileSync, RowSync, StridedSync,
  Conv2DTileSync and BatchSync;
* tile processing orders (:mod:`repro.cusync.tile_orders`);
* the W/R/T optimizations of Section IV-C
  (:mod:`repro.cusync.optimizations`);
* semaphore allocation (:mod:`repro.cusync.semaphores`).

The host side — one stage per kernel, dependencies, one stream per stage
and the wait-kernels — is the ``cusync`` backend of
:mod:`repro.pipeline.executors`, which runs a
:class:`~repro.pipeline.PipelineGraph` on the GPU simulator.
"""

from repro.cusync.policies import (
    SyncPolicy,
    TileSync,
    RowSync,
    StridedSync,
    Conv2DTileSync,
    BatchSync,
    PolicySpec,
    PolicyContext,
    PolicyAssignment,
    register_policy,
    unregister_policy,
    registered_policies,
    resolve_policy,
    resolve_order_for,
)
from repro.cusync.tile_orders import (
    TileOrder,
    RowMajorOrder,
    ColumnMajorOrder,
    GroupedColumnsOrder,
    FunctionOrder,
    ExplicitOrder,
)
from repro.cusync.optimizations import OptimizationFlags, auto_optimizations, decorate_policy_name
from repro.cusync.custage import CuStage, Dependency, RangeMap
from repro.cusync.semaphores import SemaphoreAllocator, STAGE_START_ARRAY, stage_semaphore_array

__all__ = [
    "SyncPolicy",
    "TileSync",
    "RowSync",
    "StridedSync",
    "Conv2DTileSync",
    "BatchSync",
    "PolicySpec",
    "PolicyContext",
    "PolicyAssignment",
    "register_policy",
    "unregister_policy",
    "registered_policies",
    "resolve_policy",
    "resolve_order_for",
    "TileOrder",
    "RowMajorOrder",
    "ColumnMajorOrder",
    "GroupedColumnsOrder",
    "FunctionOrder",
    "ExplicitOrder",
    "OptimizationFlags",
    "auto_optimizations",
    "decorate_policy_name",
    "CuStage",
    "Dependency",
    "RangeMap",
    "SemaphoreAllocator",
    "STAGE_START_ARRAY",
    "stage_semaphore_array",
]
