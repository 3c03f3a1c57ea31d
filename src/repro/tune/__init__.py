"""Autotuning over ``(tile, policy, arch)`` on top of :class:`Session.sweep`.

The package that closes the paper's loop — "generate every candidate,
run them all, keep the fastest" (Section IV-A, "Running the Generated
Code"):

:mod:`repro.tune.space`
    :class:`SearchSpace`: the cross product of tile-config choices
    (:class:`TileChoice`), policy candidates and architectures for one
    workload, lowered to ``(graph, SweepPoint)`` work lists.
:mod:`repro.tune.strategies`
    :class:`GridSearch`, seeded :class:`RandomSearch` and
    :class:`SuccessiveHalving` — all three drive the same evaluate
    callback, so every strategy inherits the sweep cache's replay
    guarantees (only novel points simulate; reruns are near-free and
    bit-deterministic).
:mod:`repro.tune.tuner`
    :class:`Tuner` orchestrates a strategy over a space through one
    :class:`~repro.pipeline.session.Session`, producing a
    :class:`TuneReport` of per-rung :class:`Trial` records, per-arch
    winners and cache-exploitation counters.
:mod:`repro.tune.table`
    The committed best-known-config artifact ``TUNED_CONFIGS.json``
    (:class:`TunedConfigTable`) and the :func:`tuned_gemm_configs`
    resolver the model constructors' ``tuned=True`` paths use, with an
    explicit V100 fallback for arches that have no tuned entry.
:mod:`repro.tune.presets`
    Ready-made spaces for the repo's workloads
    (:func:`gpt3_mlp_space`, :func:`llama_mlp_space`).

``python -m repro.tune`` regenerates ``TUNED_CONFIGS.json``.
"""

from repro.tune.space import Candidate, DEFAULT_TILE, SearchSpace, TileChoice
from repro.tune.strategies import (
    GridSearch,
    RandomSearch,
    SearchStrategy,
    SuccessiveHalving,
)
from repro.tune.table import (
    DEFAULT_TABLE_PATH,
    TUNED_CONFIGS_ENV,
    TunedConfigTable,
    TunedEntry,
    default_table,
    reset_default_table,
    tuned_gemm_configs,
)
from repro.tune.tuner import Trial, TuneReport, Tuner
from repro.tune.presets import gpt3_mlp_space, llama_mlp_space

__all__ = [
    "Candidate",
    "DEFAULT_TABLE_PATH",
    "DEFAULT_TILE",
    "GridSearch",
    "RandomSearch",
    "SearchSpace",
    "SearchStrategy",
    "SuccessiveHalving",
    "TUNED_CONFIGS_ENV",
    "TileChoice",
    "Trial",
    "TuneReport",
    "TunedConfigTable",
    "TunedEntry",
    "Tuner",
    "default_table",
    "gpt3_mlp_space",
    "llama_mlp_space",
    "reset_default_table",
    "tuned_gemm_configs",
]
