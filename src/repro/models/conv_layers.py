"""Chains of dependent Conv2D kernels (ResNet-38 / VGG-19 layers, Table II).

Every layer of the paper's vision models performs 2 (ResNet) or 4 (deep VGG
stages) dependent 3x3 same-padded convolutions with equal input and output
channels.  cuSync synchronizes all Conv2Ds of a layer (Section V-F); this
module builds that chain for a given layer specification and batch size.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.common.validation import check_positive
from repro.gpu.arch import GpuArchitecture, TESLA_V100
from repro.kernels.conv2d import Conv2dConfig, Conv2dKernel, Conv2dProblem, choose_conv2d_config
from repro.kernels.epilogue import ReLU
from repro.models.config import ConvLayerSpec
from repro.models.workload import Workload
from repro.pipeline.graph import Edge, PipelineGraph, StageSpec


class ConvChain(Workload):
    """``convs`` dependent Conv2D kernels over one activation tensor."""

    def __init__(
        self,
        spec: ConvLayerSpec,
        batch: int = 1,
        convs: Optional[int] = None,
        arch: GpuArchitecture = TESLA_V100,
        config: Optional[Conv2dConfig] = None,
        fuse_relu: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__(arch=arch)
        check_positive("batch", batch)
        self.spec = spec
        self.batch = batch
        self.convs = convs if convs is not None else spec.convs_per_layer
        check_positive("convs", self.convs)
        self.config = config
        self.fuse_relu = fuse_relu
        self.seed = seed

    @property
    def name(self) -> str:
        return (
            f"{self.convs}x Conv2D {self.spec.image}x{self.spec.image}x{self.spec.channels} "
            f"(batch={self.batch})"
        )

    # ------------------------------------------------------------------
    def problem(self, index: int) -> Conv2dProblem:
        spec = self.spec
        return Conv2dProblem(
            batch=self.batch,
            height=spec.image,
            width=spec.image,
            in_channels=spec.channels,
            out_channels=spec.channels,
            kernel_r=spec.kernel,
            kernel_s=spec.kernel,
            input=f"act{index}",
            weight=f"filter{index}",
            output=f"act{index + 1}",
        )

    def to_graph(self) -> PipelineGraph:
        stages: List[StageSpec] = []
        edges: List[Edge] = []
        for index in range(self.convs):
            problem = self.problem(index)
            config = self.config if self.config is not None else choose_conv2d_config(problem)
            kernel = Conv2dKernel(
                f"conv{index}",
                problem,
                config=config,
                epilogue=ReLU() if self.fuse_relu else None,
                sync_inputs=(problem.input,) if index > 0 else (),
                cost_model=self.cost_model,
            )
            stages.append(StageSpec(name=kernel.name, kernel=kernel))
            if index > 0:
                edges.append(
                    Edge(producer=f"conv{index - 1}", consumer=f"conv{index}", tensor=problem.input)
                )
        return PipelineGraph(
            stages=stages,
            edges=edges,
            name=f"conv_chain_c{self.spec.channels}x{self.convs}_b{self.batch}",
        )

    # ------------------------------------------------------------------
    def input_tensors(self, rng: Optional[np.random.Generator] = None) -> Dict[str, np.ndarray]:
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        spec = self.spec
        taps = spec.kernel * spec.kernel
        scale = 1.0 / np.sqrt(spec.channels * taps)
        tensors: Dict[str, np.ndarray] = {
            "act0": rng.standard_normal(
                (self.batch, spec.image, spec.image, spec.channels)
            ).astype(np.float32),
        }
        for index in range(self.convs):
            tensors[f"filter{index}"] = (
                rng.standard_normal((spec.kernel, spec.kernel, spec.channels, spec.channels)) * scale
            ).astype(np.float32)
        return tensors

    def reference_output(self) -> np.ndarray:
        """Direct-convolution reference for the chain's final activation."""
        tensors = self.input_tensors()
        activation = tensors["act0"]
        spec = self.spec
        pad = spec.kernel // 2
        for index in range(self.convs):
            weight = tensors[f"filter{index}"]
            padded = np.pad(activation, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
            result = np.zeros_like(activation)
            for dr in range(spec.kernel):
                for ds in range(spec.kernel):
                    window = padded[:, dr:dr + spec.image, ds:ds + spec.image, :]
                    result += np.einsum("bijc,ck->bijk", window, weight[dr, ds])
            activation = np.maximum(result, 0.0) if self.fuse_relu else result
        return activation
