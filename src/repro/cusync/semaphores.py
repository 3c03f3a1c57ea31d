"""Semaphore allocation for cuSync stages.

The ``init`` method of the paper's ``CuStage`` allocates one global-memory
semaphore array per stage, sized by the stage's policy.  In the
reproduction the allocation happens once per pipeline run so that repeated
runs (warmup + measured iterations in benchmarks) start from zeroed
semaphores, exactly as the CUDA implementation re-initializes its arrays.
"""

from __future__ import annotations

from typing import Iterable

from repro.gpu.memory import GlobalMemory

#: Name of the shared array holding one "kernel has started" flag per stage,
#: used by the wait-kernel mechanism (Section III-B).
STAGE_START_ARRAY = "cusync_stage_start"


def stage_semaphore_array(stage_name: str, slot: int = 0) -> str:
    """Name of a tile-semaphore array belonging to ``stage_name``.

    Slot 0 is the stage's own (default) policy and keeps the historical
    name; additional slots exist only when consumer edges override the
    producer's policy (per-edge policy assignment), one array per distinct
    override policy.
    """
    if slot == 0:
        return f"cusync_{stage_name}_sems"
    return f"cusync_{stage_name}_sems.{slot}"


class SemaphoreAllocator:
    """Allocates (or re-initializes) all semaphore state of a pipeline."""

    def __init__(self, memory: GlobalMemory):
        self.memory = memory

    def allocate(self, stages: Iterable) -> None:
        """Allocate per-stage tile semaphores plus the stage-start flags.

        ``stages`` is an iterable of :class:`~repro.cusync.custage.CuStage`;
        the import is kept local to avoid a circular dependency.  Every
        policy slot of a stage (the default policy plus any per-edge
        overrides) gets its own array, sized by that slot's policy.  An
        array re-allocated at an unchanged size is zeroed in place (see
        :meth:`~repro.gpu.memory.GlobalMemory.alloc_semaphores`), so the
        value lists the simulator resolves per run stay valid across the
        warmup/measure re-allocations of repeated pipeline runs.
        """
        stage_list = list(stages)
        if not stage_list:
            return
        self.memory.alloc_semaphores(STAGE_START_ARRAY, len(stage_list))
        for stage in stage_list:
            for array, policy in stage.semaphore_slots():
                count = policy.num_semaphores(stage.logical_grid)
                self.memory.alloc_semaphores(array, max(1, count))
