"""Golden-trace equivalence: the fast paths must not change simulation results.

``tests/fixtures/golden_traces.json`` pins the traces the *seed* simulator
produced for the MLP, attention and conv pipelines under StreamSync and the
cuSync policy families.  The hot-path optimisations (incremental dispatch,
indexed SM allocation, block-program caching, ``__slots__`` records) are
required to be trace preserving, so the current simulator must reproduce
those traces exactly: total time, per-kernel durations and every block's
``(dispatch_time_us, sm_id, end_time_us)``, bit for bit.

The default (fused) run is checked under the historical test ids; the
unfused threshold loop and the ``wake_strategy="rescan"`` reference, which
timing runs never take, are checked against the same fixture by
monkeypatching ``GpuSimulator.run``.

If a future change *intentionally* alters simulation semantics, regenerate
the fixture with ``PYTHONPATH=src python tests/golden_trace_utils.py`` and
call the semantic change out in the PR.
"""

import pytest

from golden_trace_utils import (
    _run,
    _schemes,
    _serialize_result,
    _workloads,
    load_fixture,
)
from repro.gpu.simulator import GpuSimulator


def _cases():
    return [
        (name, scheme) for name, workload in _workloads().items() for scheme in _schemes(name)
    ]


def _unfused(self, launches):
    return self._run(launches, fuse=False)


def _rescan(self, launches):
    self.wake_strategy = "rescan"
    return self._run(launches, fuse=False)


@pytest.fixture(scope="module")
def golden():
    return load_fixture()


@pytest.mark.parametrize("workload_name,scheme", _cases())
def test_trace_matches_seed_simulator(golden, workload_name, scheme):
    _assert_matches_fixture(golden, workload_name, scheme)


@pytest.mark.parametrize("workload_name,scheme", _cases())
@pytest.mark.parametrize("path", [_unfused, _rescan], ids=["unfused", "rescan"])
def test_unfused_loop_paths_match_seed_simulator(golden, monkeypatch, path, workload_name, scheme):
    monkeypatch.setattr(GpuSimulator, "run", path)
    _assert_matches_fixture(golden, workload_name, scheme)


def _assert_matches_fixture(golden, workload_name, scheme):
    key = f"{workload_name}/{scheme}"
    assert key in golden, f"fixture missing {key}; regenerate golden_traces.json"
    expected = golden[key]

    workload = _workloads()[workload_name]
    actual = _serialize_result(_run(workload, scheme))

    assert actual["total_time_us"] == expected["total_time_us"]
    assert actual["host_issue_time_us"] == expected["host_issue_time_us"]

    assert sorted(actual["kernels"]) == sorted(expected["kernels"])
    for kernel_name, expected_stats in expected["kernels"].items():
        assert actual["kernels"][kernel_name] == expected_stats, (
            f"{key}: kernel stats diverged for {kernel_name}"
        )

    assert len(actual["blocks"]) == len(expected["blocks"])
    for position, (actual_block, expected_block) in enumerate(
        zip(actual["blocks"], expected["blocks"])
    ):
        assert actual_block == expected_block, (
            f"{key}: block record #{position} diverged\n"
            f"  expected: {expected_block}\n"
            f"  actual:   {actual_block}"
        )
