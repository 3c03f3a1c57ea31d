"""Structural canonicalization: value-level fingerprints for cache keys.

The sweep-result cache (in memory, :class:`~repro.pipeline.session.Session`)
and the disk-backed result store (:mod:`repro.service.store`) both key
results on *what a point computes*, not on which objects happen to spell
it.  That requires lowering arbitrary configuration values — kernels,
frozen dataclasses, policy specs, tile orders, module-level range maps —
into one canonical, deterministic form:

* :func:`canonicalize` maps a value to a nested tuple of primitives
  (tagged so ``1``, ``1.0``, ``True`` and ``"1"`` never collide).  The
  mapping is **process-independent**: equal values canonicalize equally in
  any interpreter, so fingerprints derived from it are valid disk keys.
* :func:`fingerprint` hashes a canonical form to a short stable hex
  digest (sha256).

Values whose identity cannot be captured structurally — closures, lambdas,
bound methods, objects beyond the recursion budget — raise
:class:`UnportableValueError`.  Callers degrade gracefully: the session
falls back to its per-process weakref graph tokens (in-memory caching
still works; the disk tier skips the point).
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from typing import Any, Tuple

from repro.common.registry import Spec

__all__ = [
    "UnportableValueError",
    "canonicalize",
    "fingerprint",
]

#: Nesting budget for the generic-object path: configuration values are
#: shallow (problem/config dataclasses, epilogues, specs); anything deeper
#: is some runtime object graph we must not pretend to fingerprint.
_MAX_DEPTH = 24


class UnportableValueError(TypeError):
    """A value has no process-independent structural form (e.g. a closure)."""


def _canonical_callable(value: Any) -> Tuple:
    module = getattr(value, "__module__", None)
    qualname = getattr(value, "__qualname__", None)
    if not module or not qualname:
        raise UnportableValueError(f"callable {value!r} has no stable module/qualname")
    if "<locals>" in qualname or "<lambda>" in qualname:
        raise UnportableValueError(
            f"callable {module}.{qualname} is a closure or lambda; only "
            "module-level functions have a process-independent identity"
        )
    if getattr(value, "__self__", None) is not None:
        raise UnportableValueError(
            f"bound method {module}.{qualname} depends on its instance's state"
        )
    return ("fn", module, qualname)


def _object_state(value: Any) -> dict:
    """Collected attribute state of a plain object (``__dict__`` + slots)."""
    state = dict(getattr(value, "__dict__", {}))
    for klass in type(value).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot in ("__dict__", "__weakref__") or slot in state:
                continue
            try:
                state[slot] = getattr(value, slot)
            except AttributeError:
                continue
    return state


def canonicalize(value: Any, depth: int = 0) -> Tuple:
    """Lower ``value`` to a canonical nested tuple of tagged primitives.

    Raises :class:`UnportableValueError` when ``value`` (or anything it
    contains) has no process-independent structural identity.
    """
    if depth > _MAX_DEPTH:
        raise UnportableValueError("value nests too deeply to fingerprint")
    if value is None:
        return ("none",)
    if value is True or value is False:
        return ("bool", value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, float):
        # repr() is the shortest round-tripping decimal form: exact,
        # deterministic, and distinct from the equal int.
        return ("float", repr(value))
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, bytes):
        return ("bytes", value.hex())
    # Registry-addressed specs compare case-insensitively by name; mirror
    # it so equal specs fingerprint equally.
    if isinstance(value, Spec):
        return (value.tag, value.name.lower(), canonicalize(value.params, depth + 1))
    from repro.cusync.policies import PolicyAssignment

    if isinstance(value, PolicyAssignment):
        return (
            "policy-assignment",
            canonicalize(value.default, depth + 1),
            canonicalize(value.stages, depth + 1),
            canonicalize(value.edges, depth + 1),
        )
    if isinstance(value, tuple) and hasattr(value, "_fields"):  # NamedTuple
        return (
            "namedtuple",
            _class_path(type(value)),
            tuple(canonicalize(item, depth + 1) for item in value),
        )
    if isinstance(value, (tuple, list)):
        return ("seq", tuple(canonicalize(item, depth + 1) for item in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(canonicalize(item, depth + 1) for item in value)))
    if isinstance(value, dict):
        return (
            "map",
            tuple(
                sorted(
                    (canonicalize(key, depth + 1), canonicalize(item, depth + 1))
                    for key, item in value.items()
                )
            ),
        )
    if is_dataclass(value) and not isinstance(value, type):
        return (
            "dataclass",
            _class_path(type(value)),
            tuple(
                (spec.name, canonicalize(getattr(value, spec.name), depth + 1))
                for spec in fields(value)
            ),
        )
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        np = None
    if np is not None:
        if isinstance(value, np.ndarray):
            return ("ndarray", value.dtype.str, value.shape, value.tobytes().hex())
        if isinstance(value, np.generic):
            return ("np-scalar", value.dtype.str, repr(value.item()))
    if isinstance(value, type):
        return ("class", _class_path(value))
    if _is_plain_function(value):
        return _canonical_callable(value)
    # Generic object: class identity plus collected attribute state.  This
    # covers SyncPolicy / TileOrder / Epilogue instances (callable or not),
    # whose behaviour is fully determined by class and constructor
    # parameters.
    state = _object_state(value)
    return (
        "obj",
        _class_path(type(value)),
        tuple(
            sorted(
                (name, canonicalize(item, depth + 1))
                for name, item in state.items()
                if not name.startswith("_")
            )
        ),
    )


def _is_plain_function(value: Any) -> bool:
    import types

    return isinstance(
        value,
        (types.FunctionType, types.BuiltinFunctionType, types.MethodType),
    )


def _class_path(klass: type) -> str:
    return f"{klass.__module__}.{klass.__qualname__}"


def fingerprint(canonical: Tuple) -> str:
    """A short stable hex digest of a canonical form (sha256, 32 chars)."""
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()[:32]
