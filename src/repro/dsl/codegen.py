"""Policy and tile-order generation (the back end of cuSyncGen).

For every dependence, cuSyncGen generates one policy per granularity choice
in each dimension: map each referenced producer tile to its own semaphore
(TileSync-like) or map the whole group to one semaphore (RowSync /
StridedSync-like), plus the tile processing order that schedules the
producer tiles one consumer tile needs consecutively (Section IV-A).  The
generated artifacts here are executable objects from :mod:`repro.cusync`
that plug straight into :attr:`~repro.pipeline.graph.StageSpec.policy` /
:attr:`~repro.pipeline.graph.Edge.policy`; their CUDA-source counterparts are
produced by :mod:`repro.dsl.cuda_codegen`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import CodegenError
from repro.cusync.policies import (
    Conv2DTileSync,
    RowSync,
    StridedSync,
    SyncPolicy,
    TileSync,
)
from repro.cusync.tile_orders import GroupedColumnsOrder, RowMajorOrder, TileOrder
from repro.dsl.analysis import NormalizedDependence, analyze_dependence
from repro.dsl.dep import Dep


@dataclass
class GeneratedPolicies:
    """Everything cuSyncGen produces for one dependence."""

    dependence: NormalizedDependence
    #: Candidate policies keyed by their paper-style name.
    policies: Dict[str, SyncPolicy] = field(default_factory=dict)
    #: The wait-minimizing producer tile order.
    producer_order: TileOrder = field(default_factory=RowMajorOrder)
    #: The consumer tile order (always row-major in the paper).
    consumer_order: TileOrder = field(default_factory=RowMajorOrder)

    @property
    def policy_names(self) -> List[str]:
        return list(self.policies.keys())

    def policy(self, name: str) -> SyncPolicy:
        try:
            return self.policies[name]
        except KeyError:
            raise CodegenError(
                f"policy {name!r} was not generated for this dependence; "
                f"available: {sorted(self.policies)}"
            ) from None


class CuSyncGen:
    """The policy / tile-order compiler."""

    def generate(self, dep: Dep, producer_index: int = 0) -> GeneratedPolicies:
        """Generate policies and orders for one producer side of a dependence."""
        normalized = analyze_dependence(dep, producer_index)
        return self.generate_from_normalized(normalized)

    def generate_from_normalized(self, normalized: NormalizedDependence) -> GeneratedPolicies:
        producer_grid = normalized.producer_grid
        policies: Dict[str, SyncPolicy] = {}

        # Case (i): one semaphore per referenced producer tile.
        if normalized.x_access.pattern == "scaled" or normalized.y_access.pattern == "scaled":
            policies["Conv2DTileSync"] = Conv2DTileSync()
        else:
            policies["TileSync"] = TileSync()

        # Case (ii): all referenced tiles share one semaphore.
        producer_order: TileOrder = RowMajorOrder()
        if normalized.x_access.pattern == "all":
            policies["RowSync"] = RowSync()
        elif normalized.x_access.pattern == "strided" and normalized.x_access.stride:
            stride = normalized.x_access.stride
            if producer_grid.x_size % stride == 0:
                policies["StridedSync"] = StridedSync(stride=stride)
                group = producer_grid.x_size // stride
                producer_order = GroupedColumnsOrder(group=group)

        # Validate every generated policy against the producer grid bounds.
        for policy in policies.values():
            policy.validate(producer_grid.shape)

        return GeneratedPolicies(
            dependence=normalized,
            policies=policies,
            producer_order=producer_order,
            consumer_order=RowMajorOrder(),
        )

    # ------------------------------------------------------------------
    def generate_all(self, dep: Dep) -> List[GeneratedPolicies]:
        """Generate artifacts for every producer side of a dependence."""
        return [self.generate(dep, index) for index in range(len(dep.producers))]
