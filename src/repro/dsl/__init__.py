"""cuSyncGen: a DSL for kernel-tile dependencies and its compiler.

Section IV of the paper introduces a DSL (embedded in C++) in which the
user describes, per kernel, the grid of tiles and how consumer tiles depend
on producer tiles through affine expressions; ``cuSyncGen`` then

1. bounds-checks the dependences against the declared grids,
2. generates a tile processing order that minimizes consumer wait time,
3. generates multiple synchronization policies (per-tile and grouped), and
4. emits the CUDA code for the ``sem``/``value`` functions and the order.

This package reproduces that pipeline in Python.  The front end
(:mod:`repro.dsl.grid`, :mod:`repro.dsl.dep`) mirrors the paper's ``Dim`` /
``Grid`` / ``Tile`` / ``ForAll`` / ``Dep`` constructs; the analysis
(:mod:`repro.dsl.analysis`) normalizes dependences into per-dimension affine
terms and checks bounds; the code generator (:mod:`repro.dsl.codegen`)
produces executable policy / tile-order objects for :mod:`repro.cusync`
while :mod:`repro.dsl.cuda_codegen` emits the equivalent CUDA-like C source
text.  Running the generated variants on the simulator to pick the fastest
— the manual experimentation the paper automates — is the job of
:mod:`repro.tune`.
"""

from repro.dsl.expr import Dim, AffineExpr, affine
from repro.dsl.grid import Grid, Tile, ForAll, Range
from repro.dsl.dep import Dep, TileRef
from repro.dsl.program import DependencyProgram
from repro.dsl.analysis import NormalizedDependence, DimensionAccess, analyze_dependence
from repro.dsl.codegen import GeneratedPolicies, CuSyncGen
from repro.dsl.cuda_codegen import emit_policy_source, emit_tile_order_source

__all__ = [
    "Dim",
    "AffineExpr",
    "affine",
    "Grid",
    "Tile",
    "ForAll",
    "Range",
    "Dep",
    "TileRef",
    "DependencyProgram",
    "NormalizedDependence",
    "DimensionAccess",
    "analyze_dependence",
    "GeneratedPolicies",
    "CuSyncGen",
    "emit_policy_source",
    "emit_tile_order_source",
]
