"""The differential harness over the (workload, arch, scheme, policy) cube.

Acceptance criterion of the cross-architecture subsystem: ``sweep_archs``
over >= 3 registered architectures x the five model workloads is
bit-identical across the serial and process sweep modes.  The fast
per-workload parameterization runs in the tier-1 lane; the full cube is
marked ``slow`` (deselect with ``-m "not slow"``).
"""

import pytest

from differential_harness import (
    WORKLOAD_POLICIES,
    assert_modes_identical,
    differential_work,
    run_cube,
    small_workloads,
)

WORKLOAD_NAMES = sorted(WORKLOAD_POLICIES)


@pytest.mark.parametrize("workload_name", WORKLOAD_NAMES)
def test_modes_identical_per_workload(workload_name):
    """Each workload's (arch, scheme, policy) grid is mode-independent."""
    results = run_cube(arches=("V100", "A100"), workload_names=[workload_name])
    assert {result.arch_name for result in results} == {"Tesla V100", "A100"}
    assert all(result.total_time_us > 0.0 for result in results)
    # Every architecture has its StreamSync baseline in the grid.
    baselines = {r.arch_name for r in results if r.scheme == "streamsync"}
    assert baselines == {"Tesla V100", "A100"}


@pytest.mark.slow
def test_full_cube_three_arches_five_workloads():
    """The full acceptance cube: 5 workloads x 3 arches x all families."""
    results = run_cube(arches=("V100", "A100", "H100-SXM"))
    expected = 3 * sum(1 + len(policies) for policies in WORKLOAD_POLICIES.values())
    assert len(results) == expected
    assert {result.arch_name for result in results} == {"Tesla V100", "A100", "H100-SXM"}
    # Architecture genuinely moves the numbers: for every workload the
    # StreamSync baseline differs across architectures.
    for workload in {result.graph_label for result in results}:
        times = {
            result.arch_name: result.total_time_us
            for result in results
            if result.graph_label == workload and result.scheme == "streamsync"
        }
        assert len(set(times.values())) == len(times), (workload, times)


def test_consumer_arch_point_runs_identically():
    """The RTX-4090 preset (different occupancy geometry, launch latency)
    runs the MLP bit-identically across modes and differs from V100."""
    graph = small_workloads()["mlp"].to_graph()
    work = differential_work(
        [graph], arches=("V100", "RTX-4090"), schemes=("cusync",), policies=("TileSync",)
    )
    results = assert_modes_identical(work)
    times = {result.arch_name: result.total_time_us for result in results}
    assert set(times) == {"Tesla V100", "RTX-4090"}
    assert times["Tesla V100"] != times["RTX-4090"]


def test_scaled_what_if_spec_sweeps():
    """ArchSpec.scaled() what-ifs ride the sweep grid like presets."""
    from repro.gpu import ArchSpec

    graph = small_workloads()["mlp"].to_graph()
    halved = ArchSpec("V100").scaled(sms=0.5)
    work = differential_work(
        [graph], arches=("V100", halved), schemes=("cusync",), policies=("TileSync",)
    )
    results = assert_modes_identical(work)
    assert len(results) == 2
    full, half = results
    assert half.arch_name.startswith("Tesla V100[")
    # Half the SMs cannot be faster on a multi-wave kernel.
    assert half.total_time_us >= full.total_time_us
