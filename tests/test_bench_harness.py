"""Tests for the bench-record gate rule of :mod:`repro.bench.harness`.

Synthetic records only: the rule is "every committed leaf reappears with
an identical value, except the declared timing leaves".
"""

from __future__ import annotations

import copy

from repro.bench.harness import compare, leaves

COMMITTED = {
    "elapsed_s": 1.25,
    "replay_identical": True,
    "cold": {"elapsed_s": 0.5, "trials": 12},
    "rows": [
        {"arch": "A100", "policy": "RowSync", "total_time_us": 1059.3734166330437},
        {"arch": "V100", "policy": "TileSync", "total_time_us": 2489.851402405701},
    ],
}
TIMING = ("elapsed_s", "cold.elapsed_s")


def _fresh(**changes):
    fresh = copy.deepcopy(COMMITTED)
    for path, value in changes.items():
        target = fresh
        *parents, leaf = path.split(".")
        for part in parents:
            target = target[part]
        target[leaf] = value
    return fresh


def test_leaves_are_json_paths_to_scalars():
    assert dict(leaves(COMMITTED)) == {
        "elapsed_s": 1.25,
        "replay_identical": True,
        "cold.elapsed_s": 0.5,
        "cold.trials": 12,
        "rows[0].arch": "A100",
        "rows[0].policy": "RowSync",
        "rows[0].total_time_us": 1059.3734166330437,
        "rows[1].arch": "V100",
        "rows[1].policy": "TileSync",
        "rows[1].total_time_us": 2489.851402405701,
    }


def test_identical_record_passes():
    assert compare(COMMITTED, copy.deepcopy(COMMITTED), TIMING) == ([], [])


def test_changed_non_timing_leaf_fails():
    failures, _ = compare(COMMITTED, _fresh(**{"cold.trials": 13}), TIMING)
    assert failures == ["cold.trials: committed 12, fresh 13"]


def test_changed_type_of_equal_value_fails():
    failures, _ = compare(COMMITTED, _fresh(**{"cold.trials": 12.0}), TIMING)
    assert failures == ["cold.trials: committed 12, fresh 12.0"]


def test_changed_timing_leaf_passes():
    fresh = _fresh(**{"elapsed_s": 9.0, "cold.elapsed_s": 4.0})
    assert compare(COMMITTED, fresh, TIMING) == ([], [])


def test_leaf_missing_from_fresh_record_fails():
    fresh = _fresh()
    del fresh["replay_identical"]
    failures, _ = compare(COMMITTED, fresh, TIMING)
    assert failures == ["replay_identical: committed true, missing from the fresh record"]


def test_fresh_only_leaf_is_reported_and_passes():
    fresh = _fresh(**{"cold.cache_ratio": 0.5})
    assert compare(COMMITTED, fresh, TIMING) == ([], ["cold.cache_ratio"])


def test_changed_value_inside_a_list_of_rows_fails():
    fresh = _fresh()
    fresh["rows"][1]["total_time_us"] = 2489.8514024057013
    failures, _ = compare(COMMITTED, fresh, TIMING)
    assert failures == [
        "rows[1].total_time_us: committed 2489.851402405701, fresh 2489.8514024057013"
    ]

