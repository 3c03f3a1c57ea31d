"""Golden-trace capture for the simulator equivalence test.

The simulator is documented as deterministic: identical inputs produce
identical traces.  The hot-path optimisations (incremental dispatch,
indexed SM allocation, block-program caching) must therefore be *trace
preserving* — every block must land on the same SM at the same time as it
did before the fast paths existed.

This module captures a canonical set of pipelines (MLP, attention and conv
chains under StreamSync and cuSync policies) into a JSON-serialisable
structure.  ``tests/fixtures/golden_traces.json`` pins the output of the
seed simulator; ``test_golden_traces.py`` re-runs the same pipelines on the
current simulator and asserts exact equality.

Regenerate the fixture (only when a change is *intended* to alter traces)
with::

    PYTHONPATH=src python tests/golden_trace_utils.py
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro.gpu.arch import AMPERE_A100, TESLA_V100
from repro.kernels.conv2d import Conv2dConfig
from repro.models.attention import Attention
from repro.models.config import GPT3_145B, LLAMA_65B, RESNET38_LAYERS, VGG19_LAYERS
from repro.models.conv_layers import ConvChain
from repro.models.llama_mlp import LlamaMlp
from repro.models.mlp import GptMlp
from repro.pipeline import run

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "fixtures", "golden_traces.json")


def _workloads() -> Dict[str, object]:
    """The pinned workloads.  Kept small enough to run in a few seconds.

    All five model workloads are pinned on both V100 and A100 (``@a100``
    keys), so the arch axis is trace-pinned too; the original four V100
    entries keep their historical keys.  ``conv_c64_splitk2`` pins the
    split-K Conv2D main loop, which no figure's tile choice reaches.
    """
    resnet = {spec.channels: spec for spec in RESNET38_LAYERS}
    vgg = {spec.channels: spec for spec in VGG19_LAYERS}
    return {
        "mlp_b256": GptMlp(batch_seq=256, arch=TESLA_V100),
        "mlp_b512": GptMlp(batch_seq=512, arch=TESLA_V100),
        "attention_s256": Attention(config=GPT3_145B, batch=1, seq=256, cached=0, arch=TESLA_V100),
        "conv_c64": ConvChain(resnet[64], batch=1, arch=TESLA_V100),
        "llama_mlp_b256": LlamaMlp(config=LLAMA_65B, batch_seq=256, arch=TESLA_V100),
        "conv_vgg_c256": ConvChain(vgg[256], batch=1, arch=TESLA_V100),
        "conv_c64_splitk2": ConvChain(
            resnet[64], batch=1, arch=TESLA_V100,
            config=Conv2dConfig(tile_m=128, tile_n=64, tile_k=32, split_k=2),
        ),
        "mlp_b256@a100": GptMlp(batch_seq=256, arch=AMPERE_A100),
        "llama_mlp_b256@a100": LlamaMlp(config=LLAMA_65B, batch_seq=256, arch=AMPERE_A100),
        "attention_s256@a100": Attention(
            config=GPT3_145B, batch=1, seq=256, cached=0, arch=AMPERE_A100
        ),
        "conv_c64@a100": ConvChain(resnet[64], batch=1, arch=AMPERE_A100),
        "conv_vgg_c256@a100": ConvChain(vgg[256], batch=1, arch=AMPERE_A100),
    }


def _schemes(name: str) -> List[str]:
    """Synchronization schemes exercised per workload.

    Stream-K converts GeMMs only, so it is pinned for the V100 GeMM
    workloads and not for the conv chains.
    """
    if name.startswith("conv"):
        return ["streamsync", "cusync:RowSync", "cusync:Conv2DTileSync"]
    if name.startswith("attention"):
        schemes = ["streamsync", "cusync:TileSync", "cusync:StridedTileSync"]
    else:
        schemes = ["streamsync", "cusync:TileSync", "cusync:RowSync"]
    if "@" not in name:
        schemes.append("streamk")
    return schemes


def _run(workload, scheme: str):
    """Run ``scheme`` (``"streamsync"``, ``"streamk"`` or ``"cusync:<policy>"``) on a fresh graph."""
    scheme, _, policy = scheme.partition(":")
    return run(
        workload.to_graph(),
        scheme=scheme,
        policy=policy or "TileSync",
        arch=workload.arch,
        cost_model=workload.cost_model,
    )


def _serialize_result(result) -> Dict[str, object]:
    simulation = result.simulation
    trace = simulation.trace
    kernels = {
        name: {
            "duration_us": stats.duration_us,
            "issue_time_us": stats.issue_time_us,
            "start_time_us": stats.start_time_us,
            "end_time_us": stats.end_time_us,
            "total_wait_time_us": stats.total_wait_time_us,
            "total_work_time_us": stats.total_work_time_us,
            "num_blocks": stats.num_blocks,
        }
        for name, stats in sorted(trace.kernels.items())
    }
    blocks = [
        {
            "kernel": record.kernel,
            "tile": [record.tile.x, record.tile.y, record.tile.z],
            "dispatch_index": record.dispatch_index,
            "sm_id": record.sm_id,
            "dispatch_time_us": record.dispatch_time_us,
            "end_time_us": record.end_time_us,
            "wait_time_us": record.wait_time_us,
            "work_time_us": record.work_time_us,
        }
        for record in trace.blocks
    ]
    return {
        "total_time_us": simulation.total_time_us,
        "host_issue_time_us": simulation.host_issue_time_us,
        "kernels": kernels,
        "blocks": blocks,
    }


def capture_traces() -> Dict[str, Dict[str, object]]:
    """Run every pinned (workload, scheme) pair and serialise its trace."""
    captured: Dict[str, Dict[str, object]] = {}
    for name, workload in _workloads().items():
        for scheme in _schemes(name):
            captured[f"{name}/{scheme}"] = _serialize_result(_run(workload, scheme))
    return captured


def load_fixture() -> Dict[str, Dict[str, object]]:
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


def write_fixture() -> None:
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    with open(FIXTURE_PATH, "w") as handle:
        json.dump(capture_traces(), handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    write_fixture()
    print(f"wrote {FIXTURE_PATH}")
