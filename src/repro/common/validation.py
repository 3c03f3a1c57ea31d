"""Small argument-validation helpers with consistent error messages.

Raising early with a message that names the offending argument keeps the
simulator and DSL error messages readable; these helpers centralize that.
"""

from __future__ import annotations

from typing import Any, Tuple, Type, Union


def check_positive(name: str, value: Union[int, float]) -> Union[int, float]:
    """Raise ``ValueError`` unless ``value > 0`` (so NaN fails); return the value."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative(name: str, value: Union[int, float]) -> Union[int, float]:
    """Raise ``ValueError`` unless ``value >= 0`` (so NaN fails); return the value."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_in_range(
    name: str,
    value: Union[int, float],
    lo: Union[int, float],
    hi: Union[int, float],
) -> Union[int, float]:
    """Raise ``ValueError`` unless ``lo <= value <= hi``; return the value."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value


def check_type(name: str, value: Any, types: Union[Type, Tuple[Type, ...]]) -> Any:
    """Raise ``TypeError`` unless ``value`` is an instance of ``types``."""
    if not isinstance(value, types):
        if isinstance(types, tuple):
            expected = " or ".join(t.__name__ for t in types)
        else:
            expected = types.__name__
        raise TypeError(f"{name} must be {expected}, got {type(value).__name__}")
    return value
