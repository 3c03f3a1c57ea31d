"""Shared fixtures for the test suite.

Tests that exercise the simulator use a scaled-down GPU (8 SMs) so pipelines
with a handful of thread blocks already show multi-wave behaviour and run in
milliseconds; architecture-accuracy tests use the real V100 preset.
"""

import os
import threading

import numpy as np
import pytest

from repro.bench.experiments import SESSION
from repro.gpu.arch import TESLA_V100
from repro.gpu.costmodel import CostModel
from repro.pipeline import run

#: Per-test wall-clock budget for the fallback watchdog, in seconds.
#: Overridable via REPRO_TEST_TIMEOUT; 0 disables the watchdog.
_FALLBACK_TIMEOUT_S = float(os.environ.get("REPRO_TEST_TIMEOUT", "120"))

_HAVE_TIMEOUT_PLUGIN = False


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long multi-mode sweep tests; the fast CI lane deselects them "
        'with -m "not slow"',
    )
    global _HAVE_TIMEOUT_PLUGIN
    _HAVE_TIMEOUT_PLUGIN = config.pluginmanager.hasplugin("timeout")


@pytest.fixture(autouse=True)
def _hang_watchdog(request):
    """Fallback per-test timeout for environments without pytest-timeout.

    CI installs pytest-timeout (which supersedes this); locally, a hung
    test — the robustness suite deliberately exercises hangs, deadlocks
    and worker kills — would otherwise wedge the whole run.  A stuck test
    thread cannot be interrupted politely, so on expiry the watchdog
    reports the offender and aborts the process.
    """
    if _HAVE_TIMEOUT_PLUGIN or _FALLBACK_TIMEOUT_S <= 0:
        yield
        return

    def expired():
        message = (
            f"\n[conftest watchdog] test {request.node.nodeid} exceeded "
            f"{_FALLBACK_TIMEOUT_S:g}s (set REPRO_TEST_TIMEOUT to adjust); "
            "aborting the test run\n"
        )
        # Suspend pytest's fd-level capture first, or the message dies in
        # a capture buffer that os._exit never replays.
        capman = request.config.pluginmanager.getplugin("capturemanager")
        try:
            if capman is not None:
                capman.suspend_global_capture(in_=True)
        except Exception:
            pass
        os.write(2, message.encode())
        os._exit(70)

    timer = threading.Timer(_FALLBACK_TIMEOUT_S, expired)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


@pytest.fixture(autouse=True)
def _clear_experiment_session():
    """Forget the paper experiments' shared session results around every
    test, so no result or simulation count depends on test order."""
    SESSION.clear_sweep_cache()
    yield
    SESSION.clear_sweep_cache()


@pytest.fixture
def small_arch():
    """An 8-SM GPU with no launch latency, for fast deterministic tests."""
    return TESLA_V100.with_overrides(
        name="test-gpu",
        num_sms=8,
        kernel_launch_latency_us=0.0,
        kernel_dispatch_latency_us=0.0,
    )


@pytest.fixture
def small_cost_model(small_arch):
    """Cost model for the small test GPU with jitter disabled."""
    return CostModel(arch=small_arch, duration_jitter=0.0)


@pytest.fixture
def v100_cost_model():
    """Cost model for the paper's Tesla V100."""
    return CostModel(arch=TESLA_V100)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def run_functional():
    """Run a workload's timing graph functionally once, on a fresh graph.

    Whether a run is functional is a property of the run: the graph is
    the one ``to_graph`` builds for timing, split-K tiles included.
    """

    def run_once(workload, scheme="cusync", policy="TileSync"):
        return run(
            workload.to_graph(),
            scheme=scheme,
            policy=policy,
            arch=workload.arch,
            cost_model=workload.cost_model,
            functional=True,
            tensors=workload.input_tensors(),
        )

    return run_once
