"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serving_poisson --seed 7 --seconds 30 --trace 0

Every pass runs in a fresh child process (this file with ``--child``), so
each pass pays the program's real start-up and starts with empty
per-process caches.  Passes start while they are expected to end within
``--seconds`` (at least :data:`MIN_PASSES` run).  A fixed calibration
loop runs before and after set-up and every timed part; each host time is
the sum, over the parts of a phase, of the part's median over the passes
after scaling it by the loop around it to a reference speed
(:func:`workloads.at_reference_speed`).  Set-up time is the median of the
set-ups, scaled the same way; memory is a median.  Raw seconds go into
the record.

With ``--trace 1`` the run alternates untraced and traced passes and
reports the per-layer metrics of the fastest traced one; the untraced
passes give the rates and the tracing overhead.  The first traced pass
also writes its wall timeline to ``perfbench/out/<workload>.trace.json`` (Chrome
trace-event format: open it in https://ui.perfetto.dev or
``chrome://tracing``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Everything above it is
the human-readable report; the full record, with every sample and the
machine stanza, goes to ``perfbench/out/<workload>.record.json``.

Without ``--workload`` all three workloads run in turn.
``--write-reference`` stores the current outputs for the default seed as
the reference the correctness check compares against; do that only for
an intended change of the simulated results.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

import layers  # noqa: E402  (imports the program only when tracing starts)
import workloads  # noqa: E402  (imports the program only in set-up)
from tracer import Recorder  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")

#: Fewest untraced passes a run measures, however short ``--seconds`` is.
MIN_PASSES = 2
#: Fewest set-up samples behind ``setup_s``; set-up-only children top up
#: the passes' own samples.
SETUP_SAMPLES = 7
#: A child that takes longer than this has hung.
CHILD_TIMEOUT_S = 120

#: End-to-end metrics, ``name -> unit``, reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    """A child process exited with an error instead of a record."""


# ----------------------------------------------------------------------
# Child: set up, run one pass, check, report
# ----------------------------------------------------------------------
def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE, f"{workload}.json")


def compare(units: Dict[str, Tuple[Any, int]], reference: Dict[str, Tuple[Any, int]]) -> Tuple[int, List[str]]:
    """Failed operations and reasons where ``units`` differ from ``reference``."""
    failed = 0
    problems: List[str] = []
    for key in sorted(set(units) | set(reference)):
        ours = units.get(key)
        theirs = reference.get(key)
        if ours is not None and theirs is not None and ours[0] == theirs[0]:
            continue
        failed += (ours or theirs)[1]
        problems.append(f"{key}: differs from the reference output")
    return failed, problems


def child(args: argparse.Namespace) -> Dict[str, Any]:
    """Set up, run one pass (traced with ``--traced``) and check it."""
    # Set-up is bracketed by the calibration loop like every timed part;
    # the loop before it is not set-up time.
    loop_before = workloads.calibration_loop()
    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.setup(args.seed, small=args.small)
    setup_s = time.perf_counter() - _PROCESS_START - loop_before
    loop_after = workloads.calibration_loop()
    record: Dict[str, Any] = {
        "setup_s": setup_s,
        "setup_scaled": workloads.at_reference_speed(setup_s, (loop_before + loop_after) / 2),
    }
    if args.setup_only:
        return record

    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"store-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    recorder = Recorder(layers.entry_points()) if args.traced else None
    # Only untraced passes give host times, so only they calibrate.
    timer = workloads.Timer(recorder.phase) if recorder is not None else workloads.Timer(calibrate=True)
    try:
        if recorder is not None:
            with recorder:
                result = workload.run(inputs, scratch, timer)
        else:
            result = workload.run(inputs, scratch, timer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = result.failed
    problems = list(result.problems)
    if args.write_reference:
        os.makedirs(REFERENCE, exist_ok=True)
        with open(reference_path(args.workload), "w") as handle:
            json.dump({"seed": args.seed, "outputs": result.outputs}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    elif not args.small and (not workload.seeded or args.seed == workloads.DEFAULT_SEED):
        with open(reference_path(args.workload)) as handle:
            reference = json.load(handle)["outputs"]
        extra, reasons = compare(workload.units(result.outputs), workload.units(reference))
        failed += extra
        problems += reasons
    record.update(
        parts=result.parts,
        spent=timer.spent,
        scaled=timer.scaled,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=result.attempted,
        failed=min(failed, result.attempted),
        problems=problems[:20],
        facts=result.facts,
        numpy=sys.modules["numpy"].__version__,
    )
    if recorder is not None:
        record["layers"] = layers.measure(recorder, result.facts)
        record["self_s_by_phase"] = recorder.self_seconds()
        if args.write_trace:
            recorder.write_chrome_trace(os.path.join(OUT, f"{args.workload}.trace.json"))
    return record


# ----------------------------------------------------------------------
# Parent: schedule children, aggregate, report
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, *flags: str) -> Dict[str, Any]:
    command = [sys.executable, os.path.abspath(__file__), "--child", "--workload", workload, "--seed", str(seed)]
    command += list(flags)
    env = dict(os.environ, PYTHONPATH=SOURCE)
    completed = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if completed.returncode != 0:
        raise ChildFailed(completed.stderr.strip().splitlines()[-1] if completed.stderr.strip() else "no output")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def machine(numpy_version: str) -> Dict[str, Any]:
    """Recorded with every result, to compare machines."""
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": statistics.median(workloads.calibration_loop() for _ in range(5)),
    }


def phase_times(parts: Dict[str, float]) -> Dict[str, float]:
    """``cold_s``, ``warm_s`` and ``wall_s`` from per-part times."""
    cold_s = sum(value for key, value in parts.items() if key.startswith("cold/"))
    warm_s = sum(value for key, value in parts.items() if key.startswith("warm/"))
    return {"wall_s": cold_s + warm_s, "cold_s": cold_s, "warm_s": warm_s}


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool) -> Dict[str, Any]:
    """Run passes for ``seconds`` and aggregate them into one record."""
    flags = ["--small"] if small else []
    start = time.perf_counter()
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    last_pass_s = 0.0
    while True:
        enough_untraced = len(untraced) >= (1 if trace else MIN_PASSES)
        # No pass starts that would end after ``seconds``, once there are enough.
        if time.perf_counter() - start + last_pass_s > seconds and enough_untraced and (traced or not trace):
            break
        began = time.perf_counter()
        if trace and untraced and len(traced) < len(untraced):
            first = [] if traced else ["--write-trace"]
            traced.append(spawn(workload, seed, "--traced", *first, *flags))
        else:
            untraced.append(spawn(workload, seed, *flags))
        last_pass_s = time.perf_counter() - began
    passes = untraced + traced
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "--setup-only", *flags))

    samples = {key: [r["parts"][key] for r in untraced] for key in untraced[0]["parts"]}
    scaled = {key: [r["scaled"][key] for r in untraced] for key in samples}
    e2e = phase_times({key: statistics.median(values) for key, values in scaled.items()})
    e2e["setup_s"] = statistics.median(r["setup_scaled"] for r in setups)
    e2e["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in untraced)
    host = phase_times({key: min(values) for key, values in samples.items()})
    host["setup_s"] = statistics.median(r["setup_s"] for r in setups)
    attempted = sum(record["attempted"] for record in passes)
    failed = sum(record["failed"] for record in passes)
    facts = untraced[0]["facts"]
    record: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "machine": machine(untraced[0]["numpy"]),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "setup_samples": [r["setup_s"] for r in setups],
        "setup_scaled_samples": [r["setup_scaled"] for r in setups],
        "part_samples": samples,
        "scaled_samples": scaled,
        "rss_samples": [r["peak_rss_mb"] for r in untraced],
        "end_to_end": e2e,
        "host": host,
        "facts": facts,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": sorted({problem for record in passes for problem in record["problems"]}),
        "correct": failed == 0 and all(record["facts"] == facts for record in passes),
    }
    if traced:
        # One pass, so its self times and unattributed time add up to its
        # wall; the fastest, like the raw untraced times it is compared with.
        # Every timed call counts, as it does in the traced wall.
        fastest = min(traced, key=lambda r: r["layers"]["traced_wall_s"])
        spent = phase_times({key: min(r["spent"][key] for r in untraced) for key in samples})
        record["per_layer"] = layers.with_rates(fastest["layers"], facts, spent)
        record["self_s_by_phase"] = fastest["self_s_by_phase"]
    return record


def report(record: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """Print the human-readable report; return the result object."""
    e2e = record["end_to_end"]
    facts = record["facts"]
    info = record["machine"]
    print(
        f"perfbench {record['workload']}: seed {record['seed']}, {record['passes']} untraced "
        f"+ {record['traced_passes']} traced passes in fresh processes"
    )
    print(
        f"  machine: python {info['python']}, numpy {info['numpy']}, nproc {info['nproc']}, "
        f"calibration loop {info['calibration_s']:.4f} s (reference {workloads.REFERENCE_LOOP_S} s)"
    )
    host = record["host"]
    rows: List[Tuple[str, float, str]] = [(name, e2e[name], unit) for name, unit in END_TO_END.items()]
    rows.append(("error_rate", record["error_rate"], "ratio"))
    if "iterations.warm" in facts:
        rows.append(("iterations_per_s", facts["iterations.warm"] / host["warm_s"], "1/s"))
    if "simulations.cold" in facts:
        rows.append(("sims_per_s", facts["simulations.cold"] / host["cold_s"], "1/s"))
    for name, value in sorted(facts.items()):
        if name.startswith("sim."):
            rows.append((name.replace(".", "_"), value, layers.PER_LAYER[name][0]))
    print(
        f"  end to end: host times in seconds at reference speed (calibration loop "
        f"{workloads.REFERENCE_LOOP_S} s), each part's median of {record['passes']} passes; raw seconds, "
        f"each part's fastest pass, in brackets; rates use raw seconds; sim_* are simulated and exact"
    )
    for name, value, unit in rows:
        raw = host.get(name)
        note = f"   [{raw:.6g}]" if raw is not None else ""
        print(f"    {name:<34} {value:>14.6g} {unit}{note}")
    if "per_layer" in record:
        print("  per layer (fastest traced pass):")
        for name, value in record["per_layer"].items():
            print(f"    {name:<34} {value:>14.6g} {layers.PER_LAYER[name][0]}")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{record['workload']}.record.json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if trace:
        metrics = {
            name: {"value": value, "unit": layers.PER_LAYER[name][0]}
            for name, value in record["per_layer"].items()
        }
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=workloads.DEFAULT_SEED,
        help=f"seed of the serving arrivals (default {workloads.DEFAULT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=30.0, help="how long a run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--small", action="store_true", help="reduced inputs, for the benchmark's tests")
    parser.add_argument("--write-reference", action="store_true", help="store outputs as the reference")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-trace", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse(argv)
    if args.child:
        print(json.dumps(child(args)))
        return 0
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if args.write_reference:
        for name in names:
            spawn(name, workloads.DEFAULT_SEED, "--write-reference")
            print(f"wrote {reference_path(name)}")
        return 0
    for name in names:
        try:
            record = measure(name, args.seed, args.seconds, bool(args.trace), args.small)
        except (ChildFailed, subprocess.TimeoutExpired) as error:
            print(f"perfbench {name}: a pass failed: {error}", file=sys.stderr)
            return 1
        # Wrong outputs are reported in the result (correct/failed), not
        # through the exit code, which only says whether the run finished.
        print(json.dumps(report(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
