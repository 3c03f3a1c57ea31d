"""Fused Softmax + Dropout kernel.

The paper's Attention implementation develops a fused Softmax-Dropout CUDA
kernel for the ``R = Softmax(Dropout(P))`` step between the two attention
GeMMs (Figure 2b) and reports it needs only 5 changed lines to adopt cuSync
(Table III).  The kernel is row-wise: each thread block normalizes a band of
rows of the attention-score matrix ``P``; a row of the output depends on the
*entire* row of ``P`` (the ForAll dependence of Figure 5b), which is what
makes RowSync-style policies natural here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.common.dim3 import Dim3, ceil_div
from repro.common.validation import check_in_range, check_positive
from repro.gpu.costmodel import CostModel
from repro.gpu.kernel import Segment, TensorAccess, ThreadBlockProgram
from repro.gpu.memory import GlobalMemory
from repro.gpu.occupancy import KernelResources, SOFTMAX_KERNEL_RESOURCES
from repro.kernels.base import ReadPlanStep, StageGeometry, SyncInterface, TiledKernel


@dataclass(frozen=True)
class SoftmaxDropoutProblem:
    """Row-wise softmax followed by dropout over a ``[rows, row_length]`` matrix.

    In attention, ``rows`` is ``B * S`` query positions (per batch entry and
    generated token) and ``row_length`` is the number of attended keys
    ``S + S'``.
    """

    rows: int
    row_length: int
    input: str = "P"
    output: str = "R"
    dropout_probability: float = 0.1
    seed: int = 0
    batch: int = 1
    element_bytes: int = 2

    def __post_init__(self) -> None:
        check_positive("rows", self.rows)
        check_positive("row_length", self.row_length)
        check_in_range("dropout_probability", self.dropout_probability, 0.0, 1.0)

    @property
    def total_rows(self) -> int:
        return self.rows * self.batch


class SoftmaxDropoutKernel(TiledKernel):
    """Fused Softmax-Dropout kernel; one thread block per band of rows."""

    def __init__(
        self,
        name: str,
        problem: SoftmaxDropoutProblem,
        rows_per_block: int = 8,
        sync: Optional[SyncInterface] = None,
        sync_inputs: Tuple[str, ...] = (),
        cost_model: Optional[CostModel] = None,
        functional: bool = False,
    ) -> None:
        super().__init__(name=name, cost_model=cost_model, sync=sync, functional=functional)
        check_positive("rows_per_block", rows_per_block)
        self.problem = problem
        self.rows_per_block = rows_per_block
        self.sync_inputs = tuple(sync_inputs)

    # ------------------------------------------------------------------
    # TiledKernel interface
    # ------------------------------------------------------------------
    @property
    def grid(self) -> Dim3:
        return Dim3(1, ceil_div(self.problem.rows, self.rows_per_block), self.problem.batch)

    @property
    def resources(self) -> KernelResources:
        return SOFTMAX_KERNEL_RESOURCES

    def stage_geometry(self) -> StageGeometry:
        return StageGeometry(
            grid=self.grid,
            tile_rows=self.rows_per_block,
            tile_cols=self.problem.row_length,
            split_k=1,
            batch=self.problem.batch,
            output=self.problem.output,
        )

    def build_block_program(self, tile: Dim3) -> ThreadBlockProgram:
        problem = self.problem
        occupancy = self.occupancy()
        batch_index = tile.z
        rows = self._clamp_range(
            (tile.y * self.rows_per_block, (tile.y + 1) * self.rows_per_block), problem.rows
        )
        cols = (0, problem.row_length)

        if problem.input in self.sync_inputs:
            plan = self.sync.plan_reads(problem.input, rows, cols, batch_index)
        else:
            plan = [ReadPlanStep(rows=rows, cols=cols, batch=batch_index)]

        row_count = rows[1] - rows[0]
        duration = self.cost_model.softmax_tile_us(row_count, problem.row_length, occupancy)

        # The whole row must be resident before normalization can start, so
        # all waits land on the single compute segment.
        waits = [wait for step in plan for wait in step.waits]
        reads = [read for step in plan for read in step.reads]
        posts = self.sync.posts_for(tile, self.grid)
        writes = [TensorAccess(problem.output, self.sync.output_tile_key(tile, self.grid))]
        compute = self._make_compute(batch_index, rows) if self.functional else None

        segment = Segment(
            label=f"rows[{rows[0]}:{rows[1]}]",
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
        shape = (
            (problem.rows, problem.row_length)
            if problem.batch == 1
            else (problem.batch, problem.rows, problem.row_length)
        )
        if not memory.has_tensor(problem.output):
            memory.store_tensor(problem.output, np.zeros(shape, dtype=np.float32))

    def _dropout_mask(self, batch: int, rows: Tuple[int, int]) -> np.ndarray:
        """Deterministic dropout mask for a band of rows.

        Seeding per (batch, row band) keeps the mask independent of tile
        ordering, so every policy produces bit-identical results.
        """
        problem = self.problem
        rng = np.random.default_rng((problem.seed, batch, rows[0]))
        keep = rng.random((rows[1] - rows[0], problem.row_length)) >= problem.dropout_probability
        if problem.dropout_probability >= 1.0:
            return np.zeros_like(keep, dtype=np.float32)
        return keep.astype(np.float32) / (1.0 - problem.dropout_probability)

    def _make_compute(self, batch: int, rows: Tuple[int, int]):
        problem = self.problem

        def compute(memory: GlobalMemory) -> None:
            source = memory.tensor(problem.input)
            target = memory.tensor(problem.output)
            if source.ndim == 3:
                values = source[batch, rows[0]:rows[1], :].astype(np.float32)
            else:
                values = source[rows[0]:rows[1], :].astype(np.float32)
            shifted = values - values.max(axis=1, keepdims=True)
            exponent = np.exp(shifted)
            softmax = exponent / exponent.sum(axis=1, keepdims=True)
            result = softmax * self._dropout_mask(batch, rows)
            if target.ndim == 3:
                target[batch, rows[0]:rows[1], :] = result
            else:
                target[rows[0]:rows[1], :] = result

        return compute

    def reference_result(self, memory: GlobalMemory) -> np.ndarray:
        problem = self.problem
        source = memory.tensor(problem.input).astype(np.float32)
        batched = source if source.ndim == 3 else source[np.newaxis, ...]
        out = np.zeros_like(batched)
        for batch in range(batched.shape[0]):
            values = batched[batch]
            shifted = values - values.max(axis=1, keepdims=True)
            exponent = np.exp(shifted)
            softmax = exponent / exponent.sum(axis=1, keepdims=True)
            for start in range(0, problem.rows, self.rows_per_block):
                rows = (start, min(problem.rows, start + self.rows_per_block))
                out[batch, rows[0]:rows[1], :] = softmax[rows[0]:rows[1], :] * self._dropout_mask(batch, rows)
        return out if source.ndim == 3 else out[0]
