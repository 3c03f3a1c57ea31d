"""Autotune a workload over (tile, policy) and replay the search from cache.

Demonstrates the ``repro.tune`` subsystem:

1. build a ``SearchSpace`` over tile-config choices and policy families
   for a small GPT-3-style MLP on one architecture;
2. run ``Tuner`` with ``SuccessiveHalving`` — only novel points are
   simulated, survivors re-measured at later rungs replay from the
   sweep cache;
3. rerun the identical search against the warm session: zero novel
   simulations, bit-identical trajectory (the cached-replay guarantee);
4. resolve per-arch tuned tile configs from the committed
   ``TUNED_CONFIGS.json`` with ``GptMlp(..., tuned=True)``.

Run with::

    PYTHONPATH=src python examples/autotune_workload.py
"""

from repro.gpu import resolve_arch
from repro.models import GptMlp
from repro.models.config import TransformerConfig
from repro.tune import SuccessiveHalving, Tuner, gpt3_mlp_space, tuned_gemm_configs
from repro.tune.presets import mlp_tile_grid


def main() -> None:
    # A deliberately small space so the example runs in about a second:
    # one architecture, the default tile plus four candidate grids.
    tiny = TransformerConfig(name="tiny", hidden=256, layers=2, tensor_parallel=8)
    space = gpt3_mlp_space(
        batch_seq=96,
        config=tiny,
        arches=("A100",),
        tile_choices=mlp_tile_grid("mlp_gemm1", "mlp_gemm2")[:5],
    )
    print(f"search space {space.name!r}: {len(space)} candidates")

    tuner = Tuner(mode="serial")
    cold = tuner.tune(space, SuccessiveHalving(eta=2))
    print(cold.summary())

    # The identical search against the warm session replays entirely from
    # the sweep cache — no new simulations, same winner, same trajectory.
    warm = tuner.tune(space, SuccessiveHalving(eta=2))
    print(
        f"\nwarm rerun: {warm.novel_simulations} novel simulations, "
        f"{warm.cache_hits} cache hits, "
        f"trajectory identical: {warm.trajectory() == cold.trajectory()}"
    )

    # Models resolve committed tuned configs per architecture.  The paper's
    # Table-IV grids stay the V100 default; on A100/H100 the constructors
    # pick up the committed winners from TUNED_CONFIGS.json.
    a100 = resolve_arch("A100")
    workload = GptMlp(batch_seq=512, arch=a100, tuned=True)
    configs = tuned_gemm_configs(workload.workload_key, a100)
    print(f"\ntuned configs for {workload.workload_key!r} on {a100.name}:")
    if configs is None:
        print("  (default tile won — constructor keeps the built-in grids)")
    else:
        for stage, config in sorted(configs.items()):
            print(
                f"  {stage}: tile {config.tile_m}x{config.tile_n}x{config.tile_k}, "
                f"split_k={config.split_k}"
            )


if __name__ == "__main__":
    main()
