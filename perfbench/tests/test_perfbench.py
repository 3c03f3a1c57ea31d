"""Tests of the benchmark itself: the recorder, the workloads, the command.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import EntryPoint, Recorder  # noqa: E402

RUN = os.path.join(BENCH, "run.py")


def run_small(name, seed=workloads.DEFAULT_SEED, recorder=None):
    workload = workloads.WORKLOADS[name]()
    inputs = workload.setup(seed, small=True)
    timer = workloads.Timer(recorder.phase) if recorder is not None else workloads.Timer()
    scratch = os.path.join(BENCH, "out", f"test-store-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        if recorder is None:
            return workload.run(inputs, scratch, timer)
        with recorder:
            return workload.run(inputs, scratch, timer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------
class Toy:
    def outer(self, worker_sleep):
        time.sleep(0.002)
        self.inner()
        for _ in range(3):
            self.leaf()
        if worker_sleep:
            thread = threading.Thread(target=self.inner, kwargs={"pause": worker_sleep})
            thread.start()
            time.sleep(worker_sleep / 2)
            self.inner()
            thread.join(timeout=10)
            assert not thread.is_alive()
        return "done"

    def inner(self, pause=0.003):
        time.sleep(pause)
        self.leaf()

    def leaf(self):
        time.sleep(0.001)
        self.nested_leaf()

    def nested_leaf(self):
        time.sleep(0.0005)

    @property
    def value(self):
        return 7


def toy_entries():
    return [
        EntryPoint(Toy, "outer", "Toy.outer", "outer"),
        EntryPoint(Toy, "inner", "Toy.inner", "inner"),
        EntryPoint(Toy, "leaf", "Toy.leaf", "leaf", leaf=True),
        EntryPoint(Toy, "nested_leaf", "Toy.nested_leaf", "leaf", leaf=True),
        EntryPoint(Toy, "value", "Toy.value", "value"),
    ]


def test_recorder_restores_every_wrapped_method():
    entries = layers.entry_points() + toy_entries()
    originals = [(entry.owner, entry.attribute, entry.owner.__dict__[entry.attribute]) for entry in entries]
    with Recorder(entries):
        for owner, attribute, original in originals:
            assert owner.__dict__[attribute] is not original, (owner, attribute)
        assert Toy().value == 7
    for owner, attribute, original in originals:
        assert owner.__dict__[attribute] is original, (owner, attribute)


def test_recorder_restores_after_an_exception():
    originals = {entry.attribute: Toy.__dict__[entry.attribute] for entry in toy_entries()}
    with pytest.raises(ZeroDivisionError):
        with Recorder(toy_entries()):
            1 / 0
    missing = EntryPoint(Toy, "no_such_method", "Toy.no_such_method", "outer")
    with pytest.raises(KeyError):
        with Recorder(toy_entries() + [missing]):
            pass
    for attribute, original in originals.items():
        assert Toy.__dict__[attribute] is original


@pytest.mark.parametrize("worker_sleep", [0.0, 0.02])
def test_self_times_account_for_the_traced_wall(worker_sleep):
    recorder = Recorder(toy_entries())
    with recorder:
        with recorder.phase("cold"):
            assert Toy().outer(worker_sleep) == "done"
        with recorder.phase("warm"):
            Toy().inner()
    table = recorder.self_seconds()
    wall = recorder.wall_seconds
    for phase, row in table.items():
        for layer, seconds in row.items():
            assert seconds >= -1e-12, (phase, layer, seconds)
    unattributed = wall - sum(table["all"].values())
    assert -1e-9 <= unattributed < 0.5 * wall
    assert sum(table["cold"].values()) + sum(table["warm"].values()) == pytest.approx(sum(table["all"].values()))
    # Leaves: 3 direct calls plus one per inner(), each with a nested call
    # that counts but adds no time of its own.
    inner_calls = 2 + (2 if worker_sleep else 0)
    assert recorder.calls["Toy.leaf"] == 3 + inner_calls
    assert recorder.calls["Toy.nested_leaf"] == recorder.calls["Toy.leaf"]
    assert table["all"]["leaf"] >= 0.0015 * recorder.calls["Toy.leaf"] * 0.9
    # The worker thread's span hangs under the span open on the main thread.
    spans = {span.thread: span for span in recorder.spans if span.name == "Toy.inner"}
    for thread, span in spans.items():
        if thread != threading.get_ident():
            assert span.parent is not None and span.parent.name == "Toy.outer"


def test_chrome_trace_is_valid_json(tmp_path):
    recorder = Recorder(toy_entries())
    with recorder:
        with recorder.phase("cold"):
            Toy().outer(0.0)
    path = tmp_path / "trace.json"
    recorder.write_chrome_trace(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    spans = [event for event in events if event["ph"] == "X" and event["cat"] != "phase"]
    assert len(spans) == len(recorder.spans)
    assert all(event["dur"] >= 0 for event in spans)
    assert any("leaf_calls" in event["args"] for event in spans)


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_run_of_each_workload(name):
    result = run_small(name)
    assert result.failed == 0, result.problems
    assert result.attempted > 0
    times = run.phase_times(result.parts)
    assert times["cold_s"] > 0 and times["warm_s"] > 0
    assert result.facts["sim.speedup"] > 1.0
    workload = workloads.WORKLOADS[name]
    assert workload.units(result.outputs), "nothing to check against a reference"


def test_calibrated_timer_scales_every_part_by_the_loop():
    timer = workloads.Timer(calibrate=True)
    loop_s = workloads.calibration_loop()
    assert timer("cold", "sleep", lambda: time.sleep(2 * loop_s)) is None
    timer("warm", "sleep", lambda: time.sleep(loop_s))
    timer("warm", "sleep", lambda: time.sleep(2 * loop_s))
    assert sorted(timer.scaled) == sorted(timer.parts) == ["cold/sleep", "warm/sleep"]
    assert timer.spent["warm/sleep"] > 2.5 * timer.parts["warm/sleep"]
    for key, scaled in timer.scaled.items():
        assert scaled > 0.0
        assert timer.parts[key] > 0.0
    assert workloads.Timer().scaled == {}
    # At the reference speed scaling changes nothing; on a host twice as
    # slow it takes off less than half.
    reference = workloads.REFERENCE_LOOP_S
    assert workloads.at_reference_speed(3.0, reference) == pytest.approx(3.0)
    assert 1.5 < workloads.at_reference_speed(3.0, 2 * reference) < 3.0


def test_traced_reduced_run_reports_every_layer_metric():
    recorder = Recorder(layers.entry_points())
    result = run_small("sweep_store", recorder=recorder)
    raw = layers.measure(recorder, result.facts)
    untraced = {"wall_s": 1.0, "cold_s": 1.0, "warm_s": 1.0}
    metrics = layers.with_rates(raw, result.facts, untraced)
    assert list(metrics) == list(layers.PER_LAYER)
    self_total = sum(value for name, value in metrics.items() if name.endswith(".self_s"))
    assert self_total + metrics["unattributed_s"] == pytest.approx(metrics["traced_wall_s"])
    assert metrics["unattributed_s"] >= -1e-9
    # The LLaMA MLP graph has no store key; the GPT-3 MLP graph has one.
    assert 0.0 < metrics["store.bypass_ratio"] < 1.0
    assert metrics["serving.batcher.calls"] == 0
    assert metrics["kernels.blocks_built"] > 0


def test_seed_changes_serving_arrivals_but_not_paper_figures():
    serving = workloads.ServingPoisson()
    first = serving.setup(7, small=True)["scenario"].arrivals
    second = serving.setup(8, small=True)["scenario"].arrivals
    assert first != second
    assert first == serving.setup(7, small=True)["scenario"].arrivals
    assert run_small("paper_figures", seed=7).outputs == run_small("paper_figures", seed=8).outputs


def test_changed_output_counts_as_failed():
    result = run_small("serving_poisson")
    units = workloads.ServingPoisson.units(result.outputs)
    reference = dict(units)
    key = sorted(reference)[0]
    summary = dict(reference[key][0], p99_total_us=reference[key][0]["p99_total_us"] + 1.0)
    reference[key] = (summary, reference[key][1])
    failed, problems = run.compare(units, reference)
    assert failed == summary["requests"]
    assert problems == [f"{key}: differs from the reference output"]
    assert run.compare(units, dict(units)) == (0, [])


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------
def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_result_object(trace):
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", "serving_poisson", "--seconds", "0", "--small", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = last_json_line(completed.stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    expected = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    assert [metric["name"] for metric in expected] == list(result["metrics"])
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_figures", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
