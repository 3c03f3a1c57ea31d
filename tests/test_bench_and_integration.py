"""Tests for the experiment harness plus end-to-end integration checks."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.bench import (
    format_percent,
    format_table,
    overhead_experiment,
    table1_utilization,
    table3_lines_changed,
)
from repro.bench.experiments import (
    SESSION,
    _OPTIMIZATION_LADDER,
    arch_comparison,
    figure6_llm,
    figure7_conv,
    figure8_end_to_end,
    policy_ablation,
    table4_mlp,
    table5_conv_optimizations,
    table5_mlp_optimizations,
)
from repro.errors import DataRaceError, ModelConfigError
from repro.gpu.arch import AMPERE_A100, TESLA_V100, ArchSpec
from repro.gpu.costmodel import CostModel
from repro.gpu.simulator import GpuSimulator
from repro.models import Attention, ConvChain, GptMlp, TransformerConfig
from repro.models.config import (
    GPT3_145B,
    LLAMA_65B,
    RESNET38_LAYERS,
    ConvLayerSpec,
    VisionModelConfig,
    resnet38_config,
)
from repro.models.inference import TransformerLayer, VisionModel
from repro.pipeline import PipelineGraph, Session, run
from repro.tune import SearchSpace, Tuner

TINY = TransformerConfig(name="tiny", hidden=256, layers=2, tensor_parallel=8)
TINY_VISION = VisionModelConfig(
    name="tiny-vision",
    stages=(ConvLayerSpec(image=8, channels=16, kernel=3, convs_per_layer=2, layers=1),),
)


@pytest.fixture
def simulations(monkeypatch):
    """A list that grows by one entry per ``GpuSimulator.run`` call."""
    calls = []
    original = GpuSimulator.run

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(GpuSimulator, "run", counted)
    return calls


class TestReporting:
    def test_format_percent(self):
        assert format_percent(0.153) == "15.3%"

    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]], title="t")
        lines = table.splitlines()
        assert lines[0] == "t"
        assert "10" in lines[-1]


class TestExperiments:
    def test_table1_matches_paper_batch_256(self):
        rows = table1_utilization(batch_sizes=(256,))
        producer = next(row for row in rows if row["gemm"] == "Producer")
        # Table I, batch 256: 192 thread blocks, 2x80 per wave, 1.2 waves, 60%.
        assert producer["thread_blocks"] == 192
        assert producer["blocks_per_wave"] == 160
        assert producer["waves"] == pytest.approx(1.2)
        assert producer["utilization"] == pytest.approx(0.6)

    def test_table1_utilization_improves_with_batch(self):
        rows = table1_utilization(batch_sizes=(256, 1024))
        by_batch = {(row["batch"], row["gemm"]): row["utilization"] for row in rows}
        assert by_batch[(1024, "Producer")] >= by_batch[(256, "Producer")]

    def test_table3_kernels_touch_few_lines(self):
        rows = table3_lines_changed()
        assert {row["kernel"] for row in rows} >= {"GeMM", "Conv2D", "Softmax-Dropout"}
        for row in rows:
            assert 0 < row["lines_changed"] <= 10
            assert row["fraction"] < 0.05

    def test_overhead_experiment_small(self):
        result = overhead_experiment(blocks=256)
        assert abs(result["overhead"]) < 0.10
        assert result["streamsync_us"] > 0

    def test_figure7_rows_have_policies(self):
        rows = figure7_conv(model="resnet", channels=(128,), batches=(4,))
        assert len(rows) == 1
        row = rows[0]
        assert "RowSync" in row and "Conv2DTileSync" in row
        assert row["best"] == max(row["RowSync"], row["Conv2DTileSync"])

    def test_table5_conv_optimizations_monotone(self):
        rows = table5_conv_optimizations(channels=(128,), batches=(1,))
        row = rows[0]
        assert row["+WRT"] <= row["Vanilla"] + 1e-6

    @pytest.mark.parametrize("arch", ["A100", ArchSpec("A100")], ids=["name", "spec"])
    def test_experiments_accept_arch_names_and_specs(self, arch):
        def rows(arch):
            SESSION.clear_sweep_cache()
            return (
                table1_utilization(batch_sizes=(256,), arch=arch),
                table4_mlp(batch_sizes=(64,), arch=arch),
                overhead_experiment(arch=arch, blocks=64),
            )

        assert rows(arch) == rows(AMPERE_A100)


class TestSharedSession:
    """The paper's tables and figures time every point through one session."""

    def test_second_table4_simulates_nothing(self, simulations):
        first = table4_mlp()
        assert len(simulations) == 18  # 6 batch sizes x (StreamSync + 2 policies)
        assert table4_mlp() == first
        assert len(simulations) == 18

    def test_figure8_simulates_only_blocks_figures_6_and_7_did_not_time(self, simulations):
        for model in ("gpt3", "llama"):
            for block in ("mlp", "attention"):
                figure6_llm(model=model, block=block, prompt_sizes=(512,), token_configs=())
        for model in ("resnet", "vgg"):
            figure7_conv(model=model, batches=(1,))
        before = len(simulations)
        llm_configs = ((1, 512, 0), (1, 512, 512))
        rows = figure8_end_to_end(llm_configs=llm_configs, vision_batches=(1,))
        # New to the session: attention over a 512-token KV cache (4 points
        # per model) and every LLaMA MLP point (3 per layer: its graphs
        # have no structural fingerprint, so they never replay).  The
        # GPT-3 MLP, the prompt attention and all 24 conv points replay.
        assert len(simulations) - before == 2 * 4 + 2 * 3
        fresh = [
            TransformerLayer(config=config, batch=batch, seq=seq, cached=cached).estimate()
            for config in (GPT3_145B, LLAMA_65B)
            for batch, seq, cached in llm_configs
        ]
        assert [row["cusync_us"] for row in rows[:4]] == [estimate.cusync_us for estimate in fresh]
        assert [row["streamsync_us"] for row in rows[:4]] == [
            estimate.streamsync_us for estimate in fresh
        ]

    def test_rows_equal_a_fresh_session_run(self):
        session = Session()
        graph = GptMlp(batch_seq=64).to_graph()
        [table4] = table4_mlp(batch_sizes=(64,))
        assert table4["streamsync_us"] == session.run(graph, scheme="streamsync").total_time_us
        assert table4["cusync_us"] == min(
            session.run(graph, scheme="cusync", policy=policy).total_time_us
            for policy in ("TileSync", "RowSync")
        )
        [table5] = table5_mlp_optimizations()
        for label, flags in _OPTIMIZATION_LADDER:
            fresh = session.run(graph, scheme="cusync", policy="TileSync", optimizations=flags)
            assert table5[label] == fresh.total_time_us, label
        conv = ConvChain(RESNET38_LAYERS[1], batch=4).to_graph()
        [figure7] = figure7_conv(model="resnet", channels=(128,), batches=(4,))
        baseline = session.run(conv, scheme="streamsync").total_time_us
        assert figure7["streamsync_us"] == baseline
        for policy in ("RowSync", "Conv2DTileSync"):
            fresh = session.run(conv, scheme="cusync", policy=policy).total_time_us
            assert figure7[policy] == (baseline - fresh) / baseline, policy

    def test_estimates_follow_the_session_calibration(self):
        calibrated = CostModel(arch=TESLA_V100, duration_jitter=0.0)
        layer = TransformerLayer(config=TINY, batch=1, seq=64)
        flat = layer.estimate(session=Session(cost_model=calibrated))
        mlp = layer.mlp().to_graph()
        assert flat.per_block_us["mlp"]["StreamSync"] == (
            run(mlp, scheme="streamsync", cost_model=calibrated).total_time_us
        )
        assert flat != layer.estimate() == layer.estimate(session=SESSION)
        vision = VisionModel(config=TINY_VISION)
        flat = vision.estimate(session=Session(cost_model=calibrated))
        chain = vision.stage_chain(0).to_graph()
        assert flat.per_block_us["stage0_c16"]["StreamSync"] == (
            run(chain, scheme="streamsync", cost_model=calibrated).total_time_us
        )
        assert flat != vision.estimate() == vision.estimate(session=SESSION)

    def test_cleared_results_keep_no_what_if_arch_alive(self):
        alive = []
        for index in range(5):
            arch = TESLA_V100.with_overrides(name=f"what-if-{index}", num_sms=40)
            table4_mlp(batch_sizes=(64,), arch=arch)
            alive.append(weakref.ref(arch))
            del arch
            SESSION.clear_sweep_cache()
            gc.collect()
        assert [ref() for ref in alive] == [None] * 5

    def test_arch_comparison_end_to_end_replays_its_grid(self, simulations):
        rows = arch_comparison(arches=("V100", "A100"))
        grid_points = sum(row["workload"] != "end_to_end_gpt3_layer" for row in rows)
        # 14 end-to-end points: V100's 7 and A100's 3 GPT-3 MLP points are
        # grid points; A100's attention is built with A100 tiles, not the
        # grid's V100 tiles, so its 4 points simulate.
        assert len(simulations) - grid_points == 4


class TestTuner:
    def test_tuner_reports_best(self):
        workload = GptMlp(config=TINY, batch_seq=96)
        graph = workload.to_graph()
        space = SearchSpace(
            name=graph.name,
            builder=lambda _configs: graph,
            policies=("TileSync", "RowSync"),
            arches=(workload.arch,),
        )
        session = Session(arch=workload.arch, cost_model=workload.cost_model)
        report = Tuner(session=session).tune(space)
        arch = workload.arch.name
        best = report.best_for(arch)
        assert best.policy in ("TileSync", "RowSync")
        assert report.baseline_for(arch) > 0
        assert best.time_us == min(
            trial.time_us for trial in report.trials if not trial.is_baseline
        )
        assert space.name in report.summary()


class TestEndToEndEstimates:
    def test_transformer_layer_estimate(self):
        layer = TransformerLayer(config=TINY, batch=1, seq=64)
        estimate = layer.estimate(policies=["TileSync"], attention_policies=["TileSync"])
        assert estimate.streamsync_us > 0
        assert estimate.cusync_us > 0
        assert estimate.common_us > 0
        assert -0.2 < estimate.improvement < 0.5

    def test_vision_model_estimate_positive(self):
        model = VisionModel(config=resnet38_config(), batch=1)
        estimate = model.estimate(policies=["Conv2DTileSync"])
        assert estimate.improvement > 0.0
        assert len(estimate.per_block_us) == 4

    @pytest.mark.parametrize("arch", ["A100", ArchSpec("A100")], ids=["name", "spec"])
    def test_estimates_accept_arch_names_and_specs(self, arch):
        def layer(arch):
            return TransformerLayer(config=TINY, batch=1, seq=64, arch=arch).estimate(
                policies=["TileSync"], attention_policies=["TileSync"]
            )

        def vision(arch):
            return VisionModel(config=TINY_VISION, arch=arch).estimate(policies=["RowSync"])

        assert layer(arch) == layer(AMPERE_A100)
        assert vision(arch) == vision(AMPERE_A100)


class TestFigureNames:
    """An unknown model or block name is rejected, never run as another model."""

    @pytest.mark.parametrize(
        "figure,kwargs,accepted",
        [
            (figure7_conv, {"model": "resnet38", "channels": (64,), "batches": (1,)}, "'resnet', 'vgg'"),
            (figure6_llm, {"model": "gpt-3", "prompt_sizes": (), "token_configs": ()}, "'gpt3', 'llama'"),
            (figure6_llm, {"block": "mlps", "prompt_sizes": (), "token_configs": ()}, "'mlp', 'attention'"),
        ],
        ids=["figure7-resnet38", "figure6-gpt-3", "figure6-mlps"],
    )
    def test_unknown_name_rejected(self, figure, kwargs, accepted):
        with pytest.raises(ModelConfigError, match=accepted):
            figure(**kwargs)

    @pytest.mark.parametrize(
        "experiment,kwargs",
        [
            (figure7_conv, {"model": "resnet", "channels": (96,), "batches": (1,)}),
            (table5_conv_optimizations, {"channels": (96,)}),
            (policy_ablation, {"conv_channels": 96}),
            (arch_comparison, {"arches": ("V100",), "conv_channels": 96}),
        ],
        ids=["figure7", "table5", "policy_ablation", "arch_comparison"],
    )
    def test_unknown_channel_count_rejected(self, experiment, kwargs):
        with pytest.raises(ModelConfigError, match="64, 128, 256, 512"):
            experiment(**kwargs)

    def test_names_match_case_insensitively(self):
        assert figure6_llm(model="LLaMA", block="Attention", prompt_sizes=(), token_configs=()) == []
        rows = figure7_conv(model="VGG", channels=(256,), batches=(1,))
        assert [row["convs"] for row in rows] == [4]


class TestCrossSchemeConsistency:
    """The same workload must produce identical numerics under every scheme."""

    def test_all_policies_agree_numerically(self, run_functional):
        workload = GptMlp(config=TINY, batch_seq=96)
        outputs = {
            policy: run_functional(workload, policy=policy).tensor("XW12")
            for policy in ("TileSync", "RowSync")
        }
        baseline = run_functional(workload, scheme="streamsync").tensor("XW12")
        for name, value in outputs.items():
            np.testing.assert_allclose(value, baseline, rtol=1e-5, atol=1e-5, err_msg=name)

    def test_attention_policies_agree(self, run_functional):
        outputs = []
        for policy in ("TileSync", "StridedTileSync"):
            workload = Attention(config=TINY, batch=1, seq=64, dropout=0.0)
            outputs.append(run_functional(workload, policy=policy).tensor("XW12"))
        np.testing.assert_allclose(outputs[0], outputs[1], rtol=1e-5, atol=1e-5)

    def test_under_synchronized_policy_detected_as_race(self):
        """A policy that waits for too few posts must surface as a data race.

        ``LeakyRowSync`` shares one semaphore per row (like RowSync) but only
        requires a single post before consumers proceed, so a consumer can
        read row tiles the producer has not yet written.
        """
        from repro.cusync.policies import RowSync

        class LeakyRowSync(RowSync):
            name = "LeakyRowSync"

            def expected_value(self, tile, grid):
                return 1

        from repro.kernels.gemm import GemmConfig

        # Small tiles so each output row of the producer spans several tiles.
        configs = (GemmConfig(32, 32, 32), GemmConfig(32, 32, 32))
        workload = GptMlp(config=TINY, batch_seq=96, gemm_configs=configs)
        graph = workload.to_graph()
        leaky = PipelineGraph(
            stages=[replace(stage, policy=LeakyRowSync()) for stage in graph.stages],
            edges=graph.edges,
        )
        with pytest.raises(DataRaceError):
            run(
                leaky,
                scheme="cusync",
                arch=workload.arch,
                cost_model=workload.cost_model,
                functional=True,
                tensors=workload.input_tensors(),
            )

    def test_improvements_deterministic_across_runs(self):
        first = ConvChain(RESNET38_LAYERS[0], batch=1).improvement_over_streamsync("RowSync")
        second = ConvChain(RESNET38_LAYERS[0], batch=1).improvement_over_streamsync("RowSync")
        assert first == pytest.approx(second, abs=1e-12)
