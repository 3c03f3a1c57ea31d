#!/usr/bin/env python3
"""Synchronizing the dependent Conv2D kernels of a ResNet-38 layer.

Every ResNet-38 / VGG-19 layer in the paper's Table II performs two (or
four) dependent 3x3 convolutions over the same image size and channel
count.  This example sweeps the channel counts and batch sizes of Figure 7,
comparing StreamSync against cuSync's RowSync and Conv2DTileSync policies,
and then verifies functional correctness of a small chain.

Run with:  python examples/resnet_conv_chain.py
"""

import numpy as np

from repro.bench import format_percent, format_table
from repro.models import ConvChain
from repro.models.config import ConvLayerSpec, RESNET38_LAYERS
from repro.pipeline import Session

POLICIES = ("RowSync", "Conv2DTileSync")


def timing_study():
    session = Session()
    rows = []
    for spec in RESNET38_LAYERS:
        for batch in (1, 8, 32):
            # One graph per layer/batch point, reused for the baseline and
            # both policy families.
            graph = ConvChain(spec, batch=batch).to_graph()
            baseline = session.run(graph, scheme="streamsync").total_time_us
            cells = [spec.channels, f"{spec.image}x{spec.image}", batch, f"{baseline:.0f}"]
            for policy in POLICIES:
                time_us = session.run(graph, scheme="cusync", policy=policy).total_time_us
                cells.append(format_percent((baseline - time_us) / baseline))
            rows.append(cells)
    print(
        format_table(
            ["channels", "image", "batch", "StreamSync us", *POLICIES],
            rows,
            title="ResNet-38 layers (2 dependent Conv2Ds): improvement over StreamSync",
        )
    )


def functional_check():
    spec = ConvLayerSpec(image=10, channels=8, kernel=3, convs_per_layer=2, layers=1)
    workload = ConvChain(spec, batch=1)
    result = Session().run(
        workload.to_graph(),
        scheme="cusync",
        policy="Conv2DTileSync",
        functional=True,
        tensors=workload.input_tensors(),
    )
    error = np.abs(result.tensor("act2") - workload.reference_output()).max()
    print(f"\nFunctional check (10x10x8 images, 2 convs): max |error| = {error:.2e}")
    assert error < 1e-2


def main():
    timing_study()
    functional_check()


if __name__ == "__main__":
    main()
