"""Regenerate the committed ``TUNED_CONFIGS.json`` artifact.

Usage::

    PYTHONPATH=src python -m repro.tune [--output PATH] [--strategy grid|halving]
                                        [--arches A100 H100-SXM RTX-4090]
                                        [--mode serial] [--batch-seq 512]

Tunes the preset MLP spaces per architecture and writes the merged
best-known-config table.  Tesla V100 is deliberately *not* tuned: the
models' built-in defaults are the paper's V100-tuned Table-IV grids, and
keeping V100 out of the table keeps that reproduction byte-stable (the
resolver falls back to the defaults, without warning, on V100).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from repro.pipeline.session import Session
from repro.tune.presets import gpt3_mlp_space, llama_mlp_space
from repro.tune.strategies import GridSearch, SuccessiveHalving
from repro.tune.table import DEFAULT_TABLE_PATH, TunedConfigTable, reset_default_table
from repro.tune.tuner import Tuner


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(DEFAULT_TABLE_PATH))
    parser.add_argument("--strategy", choices=("grid", "halving"), default="halving")
    parser.add_argument(
        "--arches", nargs="+", default=["A100", "H100-SXM", "RTX-4090"]
    )
    parser.add_argument("--mode", default="serial", choices=("serial", "process"))
    parser.add_argument("--batch-seq", type=int, default=512)
    args = parser.parse_args(argv)

    spaces = [
        gpt3_mlp_space(batch_seq=args.batch_seq, arches=tuple(args.arches)),
        llama_mlp_space(batch_seq=args.batch_seq, arches=tuple(args.arches)),
    ]
    strategy_for = lambda: (
        GridSearch() if args.strategy == "grid" else SuccessiveHalving(eta=2)
    )

    table = TunedConfigTable()
    tuner = Tuner(session=Session(), mode=args.mode)
    start = time.perf_counter()
    for space in spaces:
        report = tuner.tune(space, strategy_for())
        print(report.summary())
        for entry in report.entries:
            table.put(entry)
    elapsed = time.perf_counter() - start

    table.save(args.output)
    reset_default_table()
    print(
        f"wrote {len(table)} entries to {args.output} in {elapsed:.1f}s "
        f"({tuner.session.sweep_cache_misses} simulations, "
        f"{tuner.session.sweep_cache_hits} cache hits)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
