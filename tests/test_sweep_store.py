"""Tests for the content-addressed sweep-result store.

Covers the store's three promises (never wrong, never crash, never
torn), the session's persistent tier built on it, and the acceptance
bar: a fresh process replays a persisted arch-comparison grid
bit-identically with zero simulations.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.gpu.costmodel import CostModel
from repro.models.config import TransformerConfig
from repro.models.mlp import GptMlp
from repro.pipeline import Session, SweepPoint, sweep_archs
from repro.service import (
    STORE_VERSION,
    SweepResultStore,
    SweepService,
    content_address,
    decode_result,
    encode_result,
    normalize_key,
)
from repro.tune import Tuner

TINY = TransformerConfig(name="tiny-store", hidden=256, layers=2, tensor_parallel=8)


@pytest.fixture()
def workload():
    return GptMlp(config=TINY, batch_seq=96)


@pytest.fixture()
def graph(workload):
    return workload.to_graph()


@pytest.fixture()
def store(tmp_path):
    return SweepResultStore(tmp_path / "results")


def _grid(graph):
    return sweep_archs(graph, ("V100", "A100"), policies=("TileSync", "RowSync"))


def _entry_files(store):
    return sorted(store.root.glob("??/*.json"))


class TestRoundTrip:
    def test_put_get_round_trips_bit_identically(self, graph, store):
        session = Session(result_store=store)
        point = SweepPoint(scheme="cusync", policy="TileSync", arch="V100")
        fresh = session.sweep([(graph, point)], mode="serial")[0]
        assert store.writes == 1

        key = session.sweep_store_key(graph, point)
        reread = SweepResultStore(store.root).get(key)
        assert reread is not None and reread.cached
        assert reread.total_time_us == fresh.total_time_us
        assert reread.total_wait_time_us == fresh.total_wait_time_us
        assert reread.kernel_durations_us == fresh.kernel_durations_us
        assert reread.arch_name == fresh.arch_name
        assert reread.scheme == fresh.scheme

    def test_fresh_session_replays_from_disk_without_simulating(self, workload, store):
        cold = Session(result_store=store).sweep(_grid(workload.to_graph()), mode="serial")
        assert store.writes == len(cold)

        replay_store = SweepResultStore(store.root)
        session = Session(result_store=replay_store)
        warm = session.sweep(_grid(workload.to_graph()), mode="serial")
        assert session.sweep_store_hits == len(cold)
        assert session.sweep_cache_misses == 0
        assert replay_store.hits == len(cold)
        assert warm == cold
        assert all(result.cached for result in warm)

    def test_content_address_is_stable_and_sharded(self, graph, store):
        session = Session(result_store=store)
        point = SweepPoint(scheme="cusync", policy="TileSync", arch="V100")
        key = session.sweep_store_key(graph, point)
        address = content_address(key)
        assert address == content_address(key)
        session.sweep([(graph, point)], mode="serial")
        (entry,) = _entry_files(store)
        assert entry.name == f"{address}.json"
        assert entry.parent.name == address[:2]

    def test_encode_decode_preserve_float_precision(self, graph, store):
        session = Session(result_store=store)
        point = SweepPoint(scheme="cusync", policy="TileSync", arch="V100")
        result = session.sweep([(graph, point)], mode="serial")[0]
        decoded = decode_result(json.loads(json.dumps(encode_result(result))))
        assert decoded.total_time_us == result.total_time_us
        assert decoded.kernel_durations_us == result.kernel_durations_us


class TestRobustness:
    """Corrupt, truncated, alien and stale entries all read as misses."""

    def _seeded(self, graph, store):
        session = Session(result_store=store)
        point = SweepPoint(scheme="cusync", policy="TileSync", arch="V100")
        session.sweep([(graph, point)], mode="serial")
        key = session.sweep_store_key(graph, point)
        (entry,) = _entry_files(store)
        return key, entry

    def _assert_miss(self, store, key, *, corrupt=0, ignored=0):
        reader = SweepResultStore(store.root)
        assert reader.get(key) is None
        assert reader.hits == 0
        assert reader.misses == 1
        assert reader.corrupt_entries == corrupt
        assert reader.ignored_versions == ignored

    def test_truncated_entry_is_a_miss(self, graph, store):
        key, entry = self._seeded(graph, store)
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
        self._assert_miss(store, key, corrupt=1)

    def test_garbage_bytes_are_a_miss(self, graph, store):
        key, entry = self._seeded(graph, store)
        entry.write_bytes(b"\x00\xff not json at all \x80")
        self._assert_miss(store, key, corrupt=1)

    def test_partial_entry_is_a_miss(self, graph, store):
        key, entry = self._seeded(graph, store)
        payload = json.loads(entry.read_text())
        del payload["result"]
        entry.write_text(json.dumps(payload))
        self._assert_miss(store, key, corrupt=1)

    def test_wrong_field_types_are_a_miss(self, graph, store):
        key, entry = self._seeded(graph, store)
        payload = json.loads(entry.read_text())
        payload["result"]["total_time_us"] = "fast"
        entry.write_text(json.dumps(payload))
        self._assert_miss(store, key, corrupt=1)

    def test_version_mismatch_is_ignored(self, graph, store):
        key, entry = self._seeded(graph, store)
        payload = json.loads(entry.read_text())
        payload["version"] = STORE_VERSION + 1
        entry.write_text(json.dumps(payload))
        self._assert_miss(store, key, ignored=1)

    def test_key_echo_mismatch_is_a_miss(self, graph, store):
        # A file sitting at this key's address but echoing a different key
        # (hash collision, copied-over file) must never be returned.
        key, entry = self._seeded(graph, store)
        payload = json.loads(entry.read_text())
        payload["key"][3] = "streamsync"
        entry.write_text(json.dumps(payload))
        self._assert_miss(store, key, corrupt=1)

    def test_missing_entry_is_a_plain_miss(self, graph, store):
        key, entry = self._seeded(graph, store)
        entry.unlink()
        self._assert_miss(store, key)

    def test_corrupt_entry_heals_on_next_sweep(self, graph, workload, store):
        key, entry = self._seeded(graph, store)
        entry.write_bytes(b"garbage")
        session = Session(result_store=SweepResultStore(store.root))
        point = SweepPoint(scheme="cusync", policy="TileSync", arch="V100")
        result = session.sweep([(workload.to_graph(), point)], mode="serial")[0]
        assert result.ok and not result.cached
        # The re-simulation rewrote a valid entry over the corrupt one.
        healed = SweepResultStore(store.root).get(key)
        assert healed is not None
        assert healed.total_time_us == result.total_time_us

    def test_non_result_values_are_rejected_not_raised(self, store):
        assert store.put(("sweep-result/v1", "k"), "not a result") is False
        assert store.rejected_writes == 1
        assert store.get(("unhashable", object())) is None  # bad key: miss
        assert store.misses == 1

    def test_concurrent_writers_never_corrupt(self, workload, store):
        session = Session(result_store=None)
        graph = workload.to_graph()
        point = SweepPoint(scheme="cusync", policy="TileSync", arch="V100")
        result = session.sweep([(graph, point)], mode="serial")[0]
        key = session.sweep_store_key(graph, point)

        def hammer(_):
            return store.put(key, result)

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(hammer, range(64)))
        assert all(outcomes)
        assert store.writes == 64
        # Whatever interleaving happened, the surviving entry is complete.
        reader = SweepResultStore(store.root)
        replay = reader.get(key)
        assert replay is not None and reader.corrupt_entries == 0
        assert replay.total_time_us == result.total_time_us
        # No stray temp files leaked.
        assert list(store.root.glob("**/*.tmp")) == []

    def test_unportable_points_bypass_the_store(self, workload, store):
        from repro.pipeline import Edge, PipelineGraph

        base = workload.to_graph()
        shift = 0  # captured: the range map below is a true closure
        edges = [
            Edge(
                edge.producer,
                edge.consumer,
                edge.tensor,
                range_map=lambda rows, cols, batch: (rows, cols, batch + shift),
            )
            for edge in base.edges
        ]
        closure = PipelineGraph(stages=base.stages, edges=edges)
        assert closure.structural_fingerprint() is None

        session = Session(result_store=store)
        point = SweepPoint(scheme="cusync", policy="TileSync", arch="V100")
        assert session.sweep_store_key(closure, point) is None
        result = session.sweep([(closure, point)], mode="serial")[0]
        assert result.ok
        assert store.writes == 0 and len(store) == 0


class TestCalibration:
    """Store keys carry no calibration, so a calibrated session holds no store."""

    def test_a_calibrated_session_cannot_reach_a_store(self, graph, store):
        calibrated = Session(cost_model=CostModel(duration_jitter=0.0))
        with pytest.raises(SimulationError, match="own cost model"):
            Session(cost_model=CostModel(duration_jitter=0.0), result_store=store)
        for attach in (
            calibrated.attach_store,
            lambda store: SweepService(session=calibrated, store=store),
            lambda store: Tuner(session=calibrated, result_store=store),
        ):
            with pytest.raises(SimulationError, match="own cost model"):
                attach(store)
        assert calibrated.result_store is None

        point = SweepPoint(scheme="cusync", policy="TileSync", arch="V100")
        flat = calibrated.sweep_point(graph, point)
        default = Session(result_store=store).sweep_point(graph, point)
        replay = Session(result_store=store)
        assert replay.sweep_point(graph, point) == default != flat
        assert replay.sweep_store_hits == 1


class TestFreshProcessReplay:
    """Acceptance: a brand-new process replays the persisted grid — GPT-3
    MLP and attention graphs — bit-identically with zero simulations."""

    SCRIPT = textwrap.dedent(
        """
        import json, sys
        from repro.models.attention import Attention
        from repro.models.config import TransformerConfig
        from repro.models.mlp import GptMlp
        from repro.pipeline import Session, sweep_archs
        from repro.service import SweepResultStore

        root, expect_replay = sys.argv[1], sys.argv[2] == "replay"
        config = TransformerConfig(name="tiny-store", hidden=256, layers=2, tensor_parallel=8)
        work = sweep_archs(
            GptMlp(config=config, batch_seq=96).to_graph(),
            ("V100", "A100"),
            policies=("TileSync", "RowSync"),
        ) + sweep_archs(
            Attention(config=config, batch=1, seq=64).to_graph(),
            ("V100", "A100"),
            policies=("TileSync", "StridedTileSync"),
        )
        store = SweepResultStore(root)
        session = Session(result_store=store)
        results = session.sweep(work, mode="serial")
        if expect_replay:
            assert session.sweep_store_hits == len(work), session.sweep_store_hits
            assert session.sweep_cache_misses == 0, session.sweep_cache_misses
            assert store.writes == 0
            assert all(r.cached for r in results)
        else:
            assert store.writes == len(work)
        print(json.dumps([
            {
                "graph": r.graph_label,
                "scheme": r.scheme,
                "arch": r.arch_name,
                "total": r.total_time_us,
                "wait": r.total_wait_time_us,
                "kernels": [[n, d] for n, d in r.kernel_durations_us],
            }
            for r in results
        ]))
        """
    )

    def _run(self, root: Path, phase: str) -> str:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(root), phase],
            capture_output=True,
            text=True,
            env=env,
            timeout=180,
        )
        assert completed.returncode == 0, completed.stderr
        return completed.stdout.strip().splitlines()[-1]

    def test_replay_across_processes_is_bit_identical(self, tmp_path):
        root = tmp_path / "results"
        cold = self._run(root, "cold")
        warm = self._run(root, "replay")
        # String equality of the JSON dumps is the strongest form of
        # bit-identity: every float serialized exactly the same.
        assert warm == cold


class TestAudit:
    """Offline integrity audit mirrors the read path's classification."""

    def _seed_grid(self, workload, store):
        session = Session(result_store=store)
        session.sweep(_grid(workload.to_graph()), mode="serial")
        entries = _entry_files(store)
        assert len(entries) >= 3
        return entries

    def _battery(self, entries):
        """Corrupt three entries three different ways; return the victims."""
        garbage, stale, echo = entries[0], entries[1], entries[2]
        garbage.write_bytes(b"\x00\xff not json \x80")
        payload = json.loads(stale.read_text())
        payload["version"] = STORE_VERSION + 1
        stale.write_text(json.dumps(payload))
        payload = json.loads(echo.read_text())
        payload["key"][3] = "streamsync"  # echo no longer matches the address
        echo.write_text(json.dumps(payload))
        return garbage, stale, echo

    def test_audit_counts_the_corruption_battery(self, workload, store):
        entries = self._seed_grid(workload, store)
        garbage, stale, echo = self._battery(entries)
        audit = SweepResultStore(store.root).audit()
        assert audit.scanned == len(entries)
        assert audit.valid == len(entries) - 3
        assert audit.corrupt == 2
        assert audit.version_mismatched == 1
        assert audit.quarantined == 0
        assert not audit.clean
        assert set(audit.corrupt_paths) == {str(garbage), str(echo)}
        assert audit.version_mismatched_paths == (str(stale),)
        assert audit.summary()["corrupt"] == 2
        assert "2 corrupt" in audit.describe()
        # The walk is read-only: nothing moved, nothing deleted.
        assert _entry_files(store) == entries

    def test_clean_store_audits_clean(self, workload, store):
        entries = self._seed_grid(workload, store)
        audit = store.audit()
        assert audit.clean
        assert audit.valid == audit.scanned == len(entries)
        assert audit.corrupt_paths == ()

    def test_quarantine_moves_corrupt_out_of_the_read_path(self, workload, store):
        from repro.service import QUARANTINE_DIR

        entries = self._seed_grid(workload, store)
        garbage, stale, echo = self._battery(entries)
        audit = store.audit(quarantine=True)
        assert audit.quarantined == audit.corrupt == 2
        assert audit.clean
        # Corrupt files moved, never deleted; version mismatch stays put.
        assert not garbage.exists() and not echo.exists()
        assert (store.root / QUARANTINE_DIR / garbage.name).exists()
        assert (store.root / QUARANTINE_DIR / echo.name).exists()
        assert stale.exists()
        # Quarantined entries are invisible to the normal read/walk path.
        assert len(_entry_files(store)) == len(entries) - 2
        reaudit = SweepResultStore(store.root).audit()
        assert reaudit.scanned == len(entries) - 2
        assert reaudit.corrupt == 0
        # Reads of the quarantined keys are now plain misses, not
        # corruption events.
        reader = SweepResultStore(store.root)
        for result in (
            reader.get(("sweep-result/v1", "missing")),
        ):
            assert result is None
        assert reader.corrupt_entries == 0

    def test_empty_or_missing_root_audits_clean(self, tmp_path):
        audit = SweepResultStore(tmp_path / "never-written").audit()
        assert audit.scanned == 0 and audit.clean


class TestAuditCli:
    """``python -m repro.service.audit`` wraps the audit for cron/CI."""

    def _seed_and_corrupt(self, workload, store):
        session = Session(result_store=store)
        session.sweep(_grid(workload.to_graph()), mode="serial")
        victim = _entry_files(store)[0]
        victim.write_bytes(b"garbage")
        return victim

    def test_cli_reports_corruption_and_exits_nonzero(self, workload, store, capsys):
        from repro.service.audit import main

        victim = self._seed_and_corrupt(workload, store)
        assert main([str(store.root)]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out
        assert str(victim) in out
        assert victim.exists()  # report-only: nothing moved

    def test_cli_quarantine_then_clean(self, workload, store, capsys):
        from repro.service.audit import main

        victim = self._seed_and_corrupt(workload, store)
        assert main([str(store.root), "--quarantine"]) == 0
        assert not victim.exists()
        assert main([str(store.root)]) == 0  # read path is clean now
        out = capsys.readouterr().out
        assert "quarantined" in out

    def test_cli_json_output(self, workload, store, capsys):
        from repro.service.audit import main

        self._seed_and_corrupt(workload, store)
        assert main([str(store.root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["corrupt"] == 1
        assert len(payload["corrupt_paths"]) == 1

    def test_cli_rejects_missing_root(self, tmp_path):
        from repro.service.audit import main

        with pytest.raises(SystemExit) as info:
            main([str(tmp_path / "nowhere")])
        assert info.value.code == 2
