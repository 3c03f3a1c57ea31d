"""Tests for the ``repro.tune`` autotuning subsystem.

Pins the revived autotuner's contract:

* search spaces validate their axes and lower candidates to the exact
  ``(graph, point)`` pairs ``Session.sweep`` evaluates, with
  deterministic graph names per tile choice;
* strategies are deterministic (same seed → same trajectory → same
  winner) and identical across the serial and process sweep modes;
* tuner reruns replay every previously-visited point from the sweep
  cache — zero novel simulations, bit-identical trajectory;
* successive halving never persists partial results: tuner-populated
  store entries are byte-identical to entries a direct ``Session.sweep``
  of the same points writes;
* ``TUNED_CONFIGS.json`` round-trips through the resolver and model
  constructors (``tuned=True``), with the documented one-time V100
  fallback warning.
"""

from __future__ import annotations

import warnings

import pytest

from repro.cusync.optimizations import OptimizationFlags
from repro.errors import ReproError, SimulationError, TuningError
from repro.gpu import resolve_arch
from repro.kernels.gemm import GemmConfig
from repro.models.config import TransformerConfig
from repro.models.llama_mlp import LlamaMlp
from repro.models.mlp import GptMlp
from repro.pipeline import Session, SweepPoint
from repro.service import SweepResultStore
from repro.tune import (
    DEFAULT_TILE,
    GridSearch,
    RandomSearch,
    SearchSpace,
    SuccessiveHalving,
    TileChoice,
    TunedConfigTable,
    TunedEntry,
    Tuner,
    gpt3_mlp_space,
    reset_default_table,
    tuned_gemm_configs,
)
from repro.tune.presets import mlp_tile_grid
from repro.tune.table import DEFAULT_TABLE_PATH, TUNED_CONFIGS_ENV

TINY = TransformerConfig(name="tiny-tune", hidden=256, layers=2, tensor_parallel=8)


def tiny_space(
    arches=("V100", "A100"),
    policies=("TileSync", "RowSync"),
    tiles=4,
):
    """A small GPT-3-shaped space that simulates in well under a second."""
    return gpt3_mlp_space(
        batch_seq=96,
        config=TINY,
        arches=arches,
        policies=policies,
        tile_choices=mlp_tile_grid("mlp_gemm1", "mlp_gemm2")[:tiles],
    )


@pytest.fixture()
def isolated_table(tmp_path, monkeypatch):
    """Point the process-wide table at a temporary path, reset around."""
    path = tmp_path / "tuned.json"
    monkeypatch.setenv(TUNED_CONFIGS_ENV, str(path))
    reset_default_table()
    yield path
    reset_default_table()


# ----------------------------------------------------------------------
# Search spaces
# ----------------------------------------------------------------------
class TestSearchSpace:
    def test_axes_are_validated(self):
        builder = lambda configs: None  # noqa: E731 - never called
        with pytest.raises(TuningError):
            SearchSpace(name="", builder=builder)
        with pytest.raises(TuningError):
            SearchSpace(name="x", builder=builder, tile_choices=())
        with pytest.raises(TuningError):
            SearchSpace(name="x", builder=builder, policies=())
        with pytest.raises(TuningError):
            SearchSpace(name="x", builder=builder, arches=())
        with pytest.raises(TuningError):
            SearchSpace(
                name="x",
                builder=builder,
                tile_choices=(DEFAULT_TILE, TileChoice("default", None)),
            )

    def test_tuning_error_is_a_repro_error(self):
        assert issubclass(TuningError, ReproError)
        with pytest.raises(ReproError):
            TileChoice("")

    def test_candidates_enumerate_arch_major_and_deterministically(self):
        space = tiny_space(tiles=3)
        candidates = space.candidates()
        assert len(candidates) == len(space) == 2 * 3 * 2
        assert candidates == space.candidates()
        arches = [resolve_arch(c.arch).name for c in candidates]
        assert arches == ["Tesla V100"] * 6 + ["A100"] * 6
        # Within one arch: tile-major, then policy.
        first_arch = candidates[:6]
        assert [c.tile.label for c in first_arch] == [
            "default", "default", "128x128/k1.1", "128x128/k1.1",
            "128x128/k2.1", "128x128/k2.1",
        ]
        assert [c.policy for c in first_arch] == ["TileSync", "RowSync"] * 3

    def test_graphs_are_memoized_and_renamed_per_tile(self):
        space = tiny_space(tiles=3)
        default = space.graph_for(DEFAULT_TILE)
        assert default.name == "mlp_tiny-tune_b96"
        assert space.graph_for(DEFAULT_TILE) is default

        tile = space.tile_choices[1]
        renamed = space.graph_for(tile)
        assert renamed.name == f"mlp_tiny-tune_b96@{tile.label}"
        assert space.graph_for(tile) is renamed
        # Same structure, different split-K -> different fingerprints
        # (the name itself is excluded from the structural state).
        other = space.graph_for(space.tile_choices[2])
        assert renamed.structural_fingerprint() != other.structural_fingerprint()
        assert renamed.renamed(other.name).structural_fingerprint() == (
            renamed.structural_fingerprint()
        )

    def test_tile_choice_canonicalizes_configs(self):
        config = GemmConfig(tile_m=128, tile_n=128, tile_k=32, split_k=1)
        choice = TileChoice("t", (("b_stage", config), ("a_stage", config)))
        assert [stage for stage, _ in choice.configs] == ["a_stage", "b_stage"]
        assert TileChoice.of("t", {"b_stage": config, "a_stage": config}) == choice
        assert choice.config_map() == {"a_stage": config, "b_stage": config}
        assert DEFAULT_TILE.config_map() is None


# ----------------------------------------------------------------------
# Strategies (driven by a fake evaluate)
# ----------------------------------------------------------------------
class TestStrategies:
    def _record(self, times):
        """An evaluate stub scoring candidates by their tile/policy order."""
        batches = []

        def evaluate(batch, rung):
            batches.append((rung, list(batch)))
            return [times[c] for c in batch]

        return batches, evaluate

    def test_grid_visits_every_candidate_once(self):
        space = tiny_space(arches=("V100",), tiles=3)
        candidates = space.candidates()
        times = {c: float(i) for i, c in enumerate(candidates)}
        batches, evaluate = self._record(times)
        GridSearch().run(candidates, evaluate)
        assert len(batches) == 1
        assert batches[0] == (0, list(candidates))

    def test_random_search_is_seed_deterministic(self):
        space = tiny_space(arches=("V100",), tiles=4)
        candidates = space.candidates()
        times = {c: float(i) for i, c in enumerate(candidates)}

        def sample(seed):
            batches, evaluate = self._record(times)
            RandomSearch(samples=3, seed=seed).run(candidates, evaluate)
            return batches[0][1]

        assert sample(7) == sample(7)
        assert sample(7) != sample(8)
        # Oversampling clamps to the space.
        batches, evaluate = self._record(times)
        RandomSearch(samples=10_000).run(candidates, evaluate)
        assert sorted(batches[0][1], key=candidates.index) == list(candidates)
        with pytest.raises(TuningError):
            RandomSearch(samples=0)

    def test_halving_keeps_per_arch_survivors(self):
        space = tiny_space(arches=("V100", "A100"), tiles=4)
        candidates = space.candidates()
        # Score so the *last* candidate of each arch group is fastest.
        times = {c: float(len(candidates) - i) for i, c in enumerate(candidates)}
        batches, evaluate = self._record(times)
        SuccessiveHalving(eta=2).run(candidates, evaluate)

        assert [rung for rung, _ in batches] == list(range(len(batches)))
        assert batches[0][1] == list(candidates)
        # Every rung halves each arch group: 8+8 -> 4+4 -> 2+2 -> 1+1.
        assert [len(batch) for _, batch in batches] == [16, 8, 4, 2]
        final = batches[-1][1]
        assert [resolve_arch(c.arch).name for c in final] == ["Tesla V100", "A100"]
        assert all(times[c] == min(times[d] for d in candidates if d.arch == c.arch)
                   for c in final)
        with pytest.raises(TuningError):
            SuccessiveHalving(eta=1)


# ----------------------------------------------------------------------
# The tuner
# ----------------------------------------------------------------------
class TestTuner:
    def test_grid_search_finds_the_per_arch_winner(self):
        space = tiny_space()
        report = Tuner().tune(space, GridSearch())

        # One baseline per arch plus the full grid.
        assert len(report.trials) == len(space) + 2
        searched = [t for t in report.trials if not t.is_baseline]
        assert len(searched) == len(space)
        for arch in ("Tesla V100", "A100"):
            best = report.best_for(arch)
            assert best.time_us == min(
                t.time_us for t in searched if t.arch == arch
            )
            assert report.baseline_for(arch) > 0
        assert set(report.winners()) == {"Tesla V100", "A100"}

        by_arch = {entry.arch: entry for entry in report.entries}
        assert set(by_arch) == {"Tesla V100", "A100"}
        for arch, entry in by_arch.items():
            assert entry.workload == space.name
            assert entry.time_us == report.best_for(arch).time_us
            assert entry.baseline_us == report.baseline_for(arch)
            assert entry.default_best_us is not None
            assert entry.time_us <= entry.default_best_us

        with pytest.raises(TuningError):
            report.best_for("H100-SXM")
        with pytest.raises(TuningError):
            report.baseline_for("H100-SXM")

    def test_modes_produce_identical_trajectories(self):
        # The same search must be bit-identical in every sweep mode.
        serial, process = (
            Tuner(mode=mode).tune(tiny_space(), SuccessiveHalving(eta=2))
            for mode in ("serial", "process")
        )
        assert serial.trajectory() == process.trajectory()
        assert serial.entries == process.entries

    def test_warm_rerun_replays_everything_from_cache(self):
        tuner = Tuner(mode="serial")
        space = tiny_space()
        cold = tuner.tune(space, SuccessiveHalving(eta=2))
        # Halving re-measures survivors every rung, so even the cold
        # search partly replays; every simulation it did was novel.
        assert cold.novel_simulations > 0
        assert cold.cache_hits > 0
        assert cold.novel_simulations + cold.cache_hits == len(cold.trials)

        warm = tuner.tune(space, SuccessiveHalving(eta=2))
        assert warm.novel_simulations == 0
        assert warm.cache_hits == len(warm.trials)
        assert all(trial.cached for trial in warm.trials)
        assert warm.trajectory() == cold.trajectory()
        assert warm.entries == cold.entries

    def test_llama_space_tunes_in_serial_mode(self):
        # SwiGLU closures keep LLaMA graphs out of process mode and the
        # store, but in-memory tuning works; exercise the preset wiring.
        from repro.tune import llama_mlp_space

        space = llama_mlp_space(
            batch_seq=96,
            config=TransformerConfig(
                name="tiny-llama", hidden=256, layers=2, tensor_parallel=8, swiglu=True
            ),
            arches=("A100",),
            policies=("TileSync",),
            tile_choices=mlp_tile_grid("llama_gemm1", "llama_gemm2")[:3],
        )
        report = Tuner(mode="serial").tune(space, GridSearch())
        assert len(report.entries) == 1
        assert report.entries[0].time_us <= report.entries[0].baseline_us


# ----------------------------------------------------------------------
# Store parity: tuner-populated entries == direct-sweep entries
# ----------------------------------------------------------------------
class TestStoreParity:
    def test_halving_persists_byte_identical_entries(self, tmp_path):
        # A halving search through a store-backed session...
        tuner_store = SweepResultStore(tmp_path / "tuner")
        tuner = Tuner(result_store=tuner_store, mode="serial")
        tuner.tune(tiny_space(), SuccessiveHalving(eta=2))
        tuner_files = {
            path.relative_to(tuner_store.root): path.read_bytes()
            for path in tuner_store.root.glob("??/*.json")
        }
        assert tuner_files

        # ...and a direct Session.sweep of the full grid through an
        # *independently built* space (fresh graphs, same parameters).
        direct_store = SweepResultStore(tmp_path / "direct")
        session = Session(result_store=direct_store)
        space = tiny_space()
        work = [(space.graph_for(DEFAULT_TILE), space.baseline_point(arch))
                for arch in space.arches]
        work += [(space.graph_for(c.tile), space.point_for(c))
                 for c in space.candidates()]
        session.sweep(work, mode="serial")
        direct_files = {
            path.relative_to(direct_store.root): path.read_bytes()
            for path in direct_store.root.glob("??/*.json")
        }

        # Halving visits a subset of the grid; every entry it persisted
        # must be byte-identical to the direct sweep's entry.
        assert set(tuner_files) <= set(direct_files)
        for name, payload in tuner_files.items():
            assert payload == direct_files[name], f"store entry diverged: {name}"

    def test_fresh_process_replays_tuned_points_from_store(self, tmp_path):
        store = SweepResultStore(tmp_path / "results")
        report = Tuner(result_store=store, mode="serial").tune(
            tiny_space(), SuccessiveHalving(eta=2)
        )

        # A fresh session over the same store replays the whole search.
        replay = Tuner(result_store=SweepResultStore(store.root), mode="serial").tune(
            tiny_space(), SuccessiveHalving(eta=2)
        )
        assert replay.novel_simulations == 0
        assert replay.store_hits > 0
        assert replay.trajectory() == report.trajectory()
        assert replay.entries == report.entries

    def test_a_session_holds_one_store(self, tmp_path):
        own = SweepResultStore(tmp_path / "own")
        session = Session(result_store=own)
        with pytest.raises(SimulationError, match="result store"):
            Tuner(session=session, result_store=SweepResultStore(tmp_path / "other"))
        assert Tuner(session=session, result_store=own).session.result_store is own
        assert Tuner(session=Session(), result_store=own).session.result_store is own


# ----------------------------------------------------------------------
# The tuned-config table and model resolution
# ----------------------------------------------------------------------
class TestTunedConfigTable:
    CONFIG1 = GemmConfig(tile_m=256, tile_n=128, tile_k=32, split_k=2)
    CONFIG2 = GemmConfig(tile_m=128, tile_n=256, tile_k=32, split_k=1)

    def _entry(self, workload="mlp_tiny-tune_b96", arch="A100"):
        return TunedEntry(
            workload=workload,
            arch=arch,
            policy="TileSync",
            time_us=10.0,
            baseline_us=20.0,
            default_best_us=12.5,
            tile="256x128/k2.1",
            configs=(("mlp_gemm1", self.CONFIG1), ("mlp_gemm2", self.CONFIG2)),
        )

    def test_round_trips_through_json_and_disk(self, tmp_path):
        table = TunedConfigTable([
            self._entry(),
            TunedEntry(workload="w", arch="H100-SXM", policy="RowSync",
                       time_us=1.0, baseline_us=2.0),  # default tile won
        ])
        assert TunedConfigTable.from_json(table.to_json()).entries() == table.entries()

        path = tmp_path / "tuned.json"
        table.save(path)
        loaded = TunedConfigTable.load(path)
        assert loaded.entries() == table.entries()
        entry = loaded.get("mlp_tiny-tune_b96", "A100")
        assert entry is not None
        assert entry.config_map() == {"mlp_gemm1": self.CONFIG1, "mlp_gemm2": self.CONFIG2}
        assert entry.improvement_vs_default == pytest.approx(1.0 - 10.0 / 12.5)
        assert loaded.get("w", "H100-SXM").config_map() is None
        assert loaded.get("w", "H100-SXM").improvement_vs_default is None

    def test_malformed_tables_raise_structured_errors(self, tmp_path):
        with pytest.raises(TuningError):
            TunedConfigTable.from_json({"version": "tuned-configs/v0", "entries": []})
        with pytest.raises(TuningError):
            TunedConfigTable.from_json({"version": "tuned-configs/v1", "entries": [{}]})
        with pytest.raises(TuningError):
            TunedEntry.from_json({
                "workload": "w", "arch": "A100", "policy": "p",
                "time_us": 1.0, "baseline_us": 2.0,
                "configs": {"stage": {"tile_q": 64}},
            })
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        with pytest.raises(TuningError):
            TunedConfigTable.load(corrupt)
        # A missing file is an empty table, not an error.
        assert len(TunedConfigTable.load(tmp_path / "missing.json")) == 0

    def test_committed_artifact_round_trips_byte_stably(self, tmp_path):
        table = TunedConfigTable.load(DEFAULT_TABLE_PATH)
        assert len(table) > 0
        # Every committed entry names a non-V100 arch and beats StreamSync.
        for entry in table.entries():
            assert entry.arch != "Tesla V100"
            assert entry.time_us < entry.baseline_us
            assert tuned_gemm_configs(entry.workload, entry.arch, table) == entry.config_map()
        # Serialization is canonical: saving reproduces the file byte-for-byte.
        copy = tmp_path / "roundtrip.json"
        table.save(copy)
        assert copy.read_bytes() == DEFAULT_TABLE_PATH.read_bytes()

    def test_fallback_warns_once_per_pair_but_never_on_v100(self, isolated_table):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert tuned_gemm_configs("some_workload", "V100") is None
            assert tuned_gemm_configs("some_workload", "A100") is None
            assert tuned_gemm_configs("some_workload", "A100") is None
            assert tuned_gemm_configs("some_workload", "H100-SXM") is None
        fallback = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(fallback) == 2  # one per (workload, arch), V100 silent
        assert "A100" in str(fallback[0].message)
        assert "V100-tuned" in str(fallback[0].message)

    def test_models_resolve_tuned_configs_per_arch(self, isolated_table):
        TunedConfigTable([self._entry()]).save(isolated_table)
        reset_default_table()

        a100 = resolve_arch("A100")
        tuned = GptMlp(config=TINY, batch_seq=96, arch=a100, tuned=True)
        assert tuned.gemm_configs == (self.CONFIG1, self.CONFIG2)
        # The graphs the tuned model builds use those tile configs.
        graph = tuned.to_graph()
        assert graph.stage("mlp_gemm1").kernel.config == self.CONFIG1
        assert graph.stage("mlp_gemm2").kernel.config == self.CONFIG2

        # Untuned construction ignores the table entirely.
        untuned = GptMlp(config=TINY, batch_seq=96, arch=a100)
        assert untuned.gemm_configs is None
        # V100 falls back to the built-in defaults silently.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            v100 = GptMlp(config=TINY, batch_seq=96, tuned=True)
        assert v100.gemm_configs is None
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # Explicit configs always win over the table.
        pinned = GptMlp(
            config=TINY, batch_seq=96, arch=a100, tuned=True,
            gemm_configs=(self.CONFIG2, self.CONFIG1),
        )
        assert pinned.gemm_configs == (self.CONFIG2, self.CONFIG1)

    def test_llama_resolution_uses_llama_stages(self, isolated_table):
        entry = TunedEntry(
            workload="llama_mlp_tiny-llama_b96",
            arch="A100",
            policy="TileSync",
            time_us=1.0,
            baseline_us=2.0,
            tile="t",
            configs=(("llama_gemm1", self.CONFIG1), ("llama_gemm2", self.CONFIG2)),
        )
        TunedConfigTable([entry]).save(isolated_table)
        reset_default_table()
        llama = LlamaMlp(
            config=TransformerConfig(
                name="tiny-llama", hidden=256, layers=2, tensor_parallel=8, swiglu=True
            ),
            batch_seq=96,
            arch=resolve_arch("A100"),
            tuned=True,
        )
        assert llama.gemm_configs == (self.CONFIG1, self.CONFIG2)


# ----------------------------------------------------------------------
# SweepPoint optimizations axis
# ----------------------------------------------------------------------
class TestSweepPointOptimizations:
    def test_labels_carry_the_flag_suffix(self):
        base = SweepPoint(scheme="cusync", policy="TileSync", arch="V100")
        assert base.label() == "cusync:TileSync@Tesla V100"
        vanilla = SweepPoint(
            scheme="cusync", policy="TileSync", arch="V100",
            optimizations=OptimizationFlags.none(),
        )
        assert vanilla.label() == "cusync:TileSync+none@Tesla V100"
        # Non-cusync schemes ignore the flags in labels and keys alike.
        baseline = SweepPoint(
            scheme="streamsync", policy=None, arch="V100",
            optimizations=OptimizationFlags.none(),
        )
        assert baseline.label() == "streamsync@Tesla V100"

    def test_flags_separate_cache_entries(self):
        graph = GptMlp(config=TINY, batch_seq=96).to_graph()
        session = Session()
        automatic = SweepPoint(scheme="cusync", policy="TileSync", arch="V100")
        vanilla = SweepPoint(
            scheme="cusync", policy="TileSync", arch="V100",
            optimizations=OptimizationFlags.none(),
        )
        first = session.sweep_point(graph, automatic)
        assert session.sweep_cache_misses == 1
        second = session.sweep_point(graph, vanilla)
        assert session.sweep_cache_misses == 2  # distinct cache identity
        assert not second.cached
        # Vanilla (no optimizations) must not beat the default W/R/T path.
        assert second.total_time_us >= first.total_time_us
        # Replays hit the right entry.
        assert session.sweep_point(graph, vanilla).cached
