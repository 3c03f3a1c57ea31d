"""Cross-architecture sweeps with the first-class ArchSpec registry.

Demonstrates the architecture space API:

1. address registered architectures by name ("V100", "A100", "H100-SXM",
   "RTX-4090") anywhere an arch axis appears;
2. register a custom architecture once and sweep it like a preset;
3. build what-if variants with ``ArchSpec.scaled(...)`` (half the SMs,
   double the bandwidth) without constructing dataclasses by hand;
4. fan a ``(graph, arch, scheme, policy)`` grid out with ``sweep_archs``
   through one ``Session.sweep`` call — bit-identical in serial and
   process modes.

Run with::

    PYTHONPATH=src python examples/arch_comparison_sweep.py
"""

from repro.gpu import ArchSpec, TESLA_V100, register_arch, registered_archs
from repro.models import GptMlp
from repro.pipeline import Session, sweep_archs


def main() -> None:
    # A hypothetical mid-range part: V100-derived, fewer SMs, slower launch.
    register_arch(
        "MidRange-GPU",
        TESLA_V100.with_overrides(name="MidRange-GPU", num_sms=48, kernel_launch_latency_us=8.0),
        aliases=("midrange",),
        overwrite=True,
    )
    print("registered architectures:", ", ".join(registered_archs()))

    workload = GptMlp(batch_seq=512)
    graph = workload.to_graph()  # built once; re-bound per (arch, scheme) point

    arches = (
        "V100",
        "A100",
        "H100-SXM",
        "RTX-4090",
        "midrange",
        ArchSpec("V100").scaled(sms=0.5, bandwidth=2.0),  # what-if study
    )
    work = sweep_archs(
        graph,
        arches,
        policies=("TileSync", "RowSync"),
        schemes=("streamsync", "cusync"),
    )

    session = Session()
    results = session.sweep(work, mode="serial")

    baselines = {
        result.arch_name: result.total_time_us
        for result in results
        if result.scheme == "streamsync"
    }
    print(f"\nGPT-3 MLP (BxS=512) across {len(arches)} architectures:")
    print(f"{'architecture':28s} {'policy':10s} {'time (us)':>12s} {'vs streamsync':>14s}")
    for result in results:
        if result.scheme != "cusync":
            continue
        baseline = baselines[result.arch_name]
        improvement = (baseline - result.total_time_us) / baseline
        print(
            f"{result.arch_name:28s} {result.policy_label:10s} "
            f"{result.total_time_us:12.1f} {improvement:13.1%}"
        )


if __name__ == "__main__":
    main()
