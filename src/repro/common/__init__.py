"""Shared utilities used across the cuSync reproduction.

This package intentionally contains only small building blocks that
depend on nothing else in the library but :mod:`repro.errors`:
3-dimensional index arithmetic (:mod:`repro.common.dim3`), tile
coordinate helpers (:mod:`repro.common.tiles`), argument validation
helpers (:mod:`repro.common.validation`) and the one spec type and name
registry behind architectures and policy families
(:mod:`repro.common.registry`).
"""

from repro.common.dim3 import Dim3, ceil_div
from repro.common.tiles import TileCoord, TileRange, linearize, delinearize
from repro.common.validation import (
    check_positive,
    check_non_negative,
    check_in_range,
    check_type,
)

__all__ = [
    "Dim3",
    "ceil_div",
    "TileCoord",
    "TileRange",
    "linearize",
    "delinearize",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_type",
]
