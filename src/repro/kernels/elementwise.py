"""Elementwise copy kernel.

Section V-D of the paper bounds the overhead of cuSync's synchronization
with a deliberately worst-case pair of kernels: a producer that copies an
input array to an intermediate array and a consumer that copies the
intermediate array to the output, launched with the maximum number of
thread blocks per wave (80 SMs x occupancy 16 = 1280 on V100).  Each
consumer block depends on the producer block with the same index, the
per-block work is minimal, and the measured overhead of cuSync over
StreamSync is 2–3%.

:class:`CopyKernel` is that kernel: a 1-D grid of blocks, each moving a
contiguous chunk of elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.common.dim3 import Dim3, ceil_div
from repro.common.validation import check_positive
from repro.gpu.costmodel import CostModel
from repro.gpu.kernel import Segment, TensorAccess, ThreadBlockProgram
from repro.gpu.memory import GlobalMemory
from repro.gpu.occupancy import COPY_KERNEL_RESOURCES, KernelResources
from repro.kernels.base import ReadPlanStep, StageGeometry, SyncInterface, TiledKernel


@dataclass(frozen=True)
class CopyProblem:
    """Copy ``elements`` values from ``source`` to ``destination``."""

    elements: int
    source: str = "input"
    destination: str = "output"
    elements_per_block: int = 4096
    element_bytes: int = 2

    def __post_init__(self) -> None:
        check_positive("elements", self.elements)
        check_positive("elements_per_block", self.elements_per_block)

    @classmethod
    def for_block_count(
        cls, blocks: int, source: str = "input", destination: str = "output", elements_per_block: int = 4096
    ) -> "CopyProblem":
        """Build a problem with exactly ``blocks`` thread blocks.

        The overhead experiment specifies the grid size directly (one full
        wave of 1280 blocks), so this constructor works backwards from it.
        """
        return cls(
            elements=blocks * elements_per_block,
            source=source,
            destination=destination,
            elements_per_block=elements_per_block,
        )


class CopyKernel(TiledKernel):
    """1-D copy kernel: block *i* copies elements ``[i*n, (i+1)*n)``."""

    def __init__(
        self,
        name: str,
        problem: CopyProblem,
        sync: Optional[SyncInterface] = None,
        sync_inputs: Tuple[str, ...] = (),
        cost_model: Optional[CostModel] = None,
        functional: bool = False,
    ) -> None:
        super().__init__(name=name, cost_model=cost_model, sync=sync, functional=functional)
        self.problem = problem
        self.sync_inputs = tuple(sync_inputs)

    @property
    def grid(self) -> Dim3:
        return Dim3(ceil_div(self.problem.elements, self.problem.elements_per_block), 1, 1)

    @property
    def resources(self) -> KernelResources:
        return COPY_KERNEL_RESOURCES

    def stage_geometry(self) -> StageGeometry:
        # The 1-D element range maps onto the grid's x dimension, so one
        # "column" of the output covers ``elements_per_block`` elements.
        return StageGeometry(
            grid=self.grid,
            tile_rows=1,
            tile_cols=self.problem.elements_per_block,
            split_k=1,
            batch=1,
            output=self.problem.destination,
        )

    def build_block_program(self, tile: Dim3) -> ThreadBlockProgram:
        problem = self.problem
        occupancy = self.occupancy()
        elements = self._clamp_range(
            (tile.x * problem.elements_per_block, (tile.x + 1) * problem.elements_per_block),
            problem.elements,
        )
        if problem.source in self.sync_inputs:
            plan = self.sync.plan_reads(problem.source, (0, 1), elements, 0)
        else:
            plan = [ReadPlanStep(rows=(0, 1), cols=elements)]
        waits = [wait for step in plan for wait in step.waits]
        reads = [read for step in plan for read in step.reads]

        count = elements[1] - elements[0]
        duration = self.cost_model.elementwise_tile_us(count, occupancy, problem.element_bytes)
        posts = self.sync.posts_for(tile, self.grid)
        writes = [TensorAccess(problem.destination, self.sync.output_tile_key(tile, self.grid))]
        compute = self._make_compute(elements) if self.functional else None

        segment = Segment(
            label=f"copy[{elements[0]}:{elements[1]}]",
            waits=waits,
            duration_us=duration,
            posts=posts,
            reads=reads,
            writes=writes,
            compute=compute,
        )
        return ThreadBlockProgram(tile=tile, segments=[segment])

    # ------------------------------------------------------------------
    # Functional (numpy) computation
    # ------------------------------------------------------------------
    def allocate_functional_tensors(self, memory: GlobalMemory) -> None:
        problem = self.problem
        if not memory.has_tensor(problem.destination):
            memory.store_tensor(problem.destination, np.zeros(problem.elements, dtype=np.float32))

    def _make_compute(self, elements: Tuple[int, int]):
        problem = self.problem

        def compute(memory: GlobalMemory) -> None:
            source = memory.tensor(problem.source)
            destination = memory.tensor(problem.destination)
            destination[elements[0]:elements[1]] = source[elements[0]:elements[1]]

        return compute

    def reference_result(self, memory: GlobalMemory) -> np.ndarray:
        return memory.tensor(self.problem.source).astype(np.float32).copy()
