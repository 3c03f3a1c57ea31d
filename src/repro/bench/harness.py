"""One gate for the committed ``BENCH_<name>.json`` records.

Each gated script in ``benchmarks/`` (``bench_sim_throughput``,
``bench_arch_comparison``, ``bench_autotune``, ``bench_serving``,
``bench_serving_overload``, ``bench_sweep_service``) defines four names
and hands its module to :func:`main`:

``run_experiment()``
    Runs the experiment and returns its record (plain JSON data).
``_print(record)`` / ``_check(record)``
    Render the record; assert the invariants that hold within one run.
``TIMING``
    The JSON paths of the record's host wall-time leaves.

A plain run rewrites the committed ``BENCH_<name>.json`` in the
repository root.  ``--check-baseline`` writes ``BENCH_<name>.latest.json``
instead and compares it with the committed record one *leaf* at a time:
a leaf is one scalar at a JSON path such as ``rows[3].total_time_us``.
Every number this repository reproduces is simulated, hence
deterministic, so each committed leaf must reappear with an identical
value.  The ``TIMING`` leaves are the exception: host wall time is
``perfbench/``'s job, which calibrates it against the host's speed.
Leaves that only the fresh record has are reported but do not fail; the
next plain run commits them.
"""

from __future__ import annotations

import argparse
import json
import os
from types import ModuleType
from typing import Iterator, List, Optional, Sequence, Tuple


def leaves(value: object, path: str = "") -> Iterator[Tuple[str, object]]:
    """Every ``(path, scalar)`` of a JSON value, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def compare(
    committed: object, fresh: object, timing: Sequence[str] = ()
) -> Tuple[List[str], List[str]]:
    """Gate ``fresh`` against the loaded ``committed`` record.

    Returns ``(failures, fresh_only)``.  A committed leaf fails when the
    fresh record lacks it or holds a different value, unless its path is
    listed in ``timing``.  Values are compared as the JSON text the record
    file holds, so ``1`` and ``1.0`` differ and floats must match bit for
    bit.
    """
    fresh_leaves = dict(leaves(json.loads(json.dumps(fresh))))
    committed_leaves = dict(leaves(committed))
    failures = []
    for path, value in committed_leaves.items():
        if path in timing:
            continue
        if path not in fresh_leaves:
            failures.append(f"{path}: committed {json.dumps(value)}, missing from the fresh record")
        elif json.dumps(fresh_leaves[path]) != json.dumps(value):
            failures.append(
                f"{path}: committed {json.dumps(value)}, fresh {json.dumps(fresh_leaves[path])}"
            )
    fresh_only = [path for path in fresh_leaves if path not in committed_leaves]
    return failures, fresh_only


def record_paths(bench: ModuleType) -> Tuple[str, str]:
    """The committed and the ``.latest`` record paths of a bench script."""
    script = os.path.abspath(bench.__file__)
    name = os.path.splitext(os.path.basename(script))[0].removeprefix("bench_")
    committed = os.path.join(os.path.dirname(os.path.dirname(script)), f"BENCH_{name}.json")
    return committed, os.path.splitext(committed)[0] + ".latest.json"


def _write(path: str, record: object) -> None:
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(bench: ModuleType, argv: Optional[Sequence[str]] = None) -> int:
    """Run a bench script, then rewrite or gate its record; the exit code."""
    parser = argparse.ArgumentParser(
        prog=os.path.basename(bench.__file__),
        description=(bench.__doc__ or "").strip().splitlines()[0],
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="write BENCH_<name>.latest.json and gate it leaf by leaf "
        "against the committed BENCH_<name>.json",
    )
    check = parser.parse_args(argv).check_baseline
    record = bench.run_experiment()
    bench._print(record)
    bench._check(record)
    committed_path, latest_path = record_paths(bench)
    _write(latest_path if check else committed_path, record)
    if not check:
        return 0

    with open(committed_path) as handle:
        committed = json.load(handle)
    failures, fresh_only = compare(committed, record, bench.TIMING)
    name = os.path.basename(committed_path)
    for path in fresh_only:
        print(f"not gated, new in the fresh record: {path}")
    if failures:
        print(f"{len(failures)} leaves differ from the committed {name}:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    gated = sum(1 for path, _ in leaves(committed) if path not in bench.TIMING)
    print(
        f"gate ok: {gated} leaves of {name} reproduced exactly "
        f"({len(bench.TIMING)} timing leaves not gated)"
    )
    return 0
