"""Registered names plus parameters: one spec type over one registry.

GPU architectures (:mod:`repro.gpu.arch`) and synchronization policy
families (:mod:`repro.cusync.policies`) are addressed the same way: a
:class:`Spec` carries a name registered in a process-wide
:class:`Registry` plus keyword parameters, and resolves against the
registry wherever it is used (worker processes included).  Every registry
mutation bumps :func:`registry_generation`, so holders of spec-keyed
derived caches (sessions) know when a spec's meaning may have changed.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple, Type, TypeVar, Union

from repro.errors import ModelConfigError

__all__ = ["Registry", "Spec", "registry_generation"]

S = TypeVar("S", bound="Spec")


def registry_generation() -> int:
    """Monotonic count of mutations of every registry (for cache invalidation)."""
    return Registry._generation


class Spec:
    """A registered name plus sorted keyword parameters, without an instance.

    Specs are cheap values: hashable (dict keys, fields of frozen
    dataclasses such as :class:`~repro.pipeline.session.SweepPoint`),
    picklable (they cross process boundaries in parallel sweeps and
    resolve against the registry on the other side) and immutable.  Names
    compare case-insensitively, specs of different subclasses never compare
    equal, and parameter values must themselves be hashable.
    """

    __slots__ = ("name", "params")

    #: What the name addresses, in error messages.
    kind: str = ""
    #: First element of the spec's canonical form (store keys, fingerprints).
    tag: str = ""
    #: What the resolver accepts besides names and specs, for ``coerce``.
    hint: str = ""

    def __init__(self, name: str, /, **params: Any) -> None:
        # ``name`` is positional-only so a ``name=...`` keyword is a
        # parameter (an ArchSpec override of the architecture's name field).
        if not isinstance(name, str) or not name:
            raise ModelConfigError(f"{type(self).__name__} needs a non-empty {self.kind} name")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", tuple(sorted(params.items())))

    @classmethod
    def coerce(cls: Type[S], value: Union[str, S]) -> S:
        """Lower a name string to a spec; pass specs through."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(value)
        raise ModelConfigError(
            f"expected a {cls.kind} name or {cls.__name__}, got {value!r} ({cls.hint})"
        )

    def label(self) -> str:
        if not self.params:
            return self.name
        rendered = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.name}({rendered})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.name.lower(), self.params) == (other.name.lower(), other.params)

    def __hash__(self) -> int:
        return hash((self.name.lower(), self.params))

    def __reduce__(self):
        return (_rebuild, (type(self), self.name, self.params))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label()!r})"


def _rebuild(cls: Type[S], name: str, params: Tuple[Tuple[str, Any], ...]) -> S:
    return cls(name, **dict(params))


class Registry:
    """Case-insensitive names and aliases, each resolving to one registered value.

    ``kind`` names what is registered in error messages.
    """

    _generation = 0

    def __init__(self, kind: str) -> None:
        self.kind = kind
        #: Lowered name or alias -> (canonical name, value).
        self._entries: Dict[str, Tuple[str, Any]] = {}

    def register(
        self, name: str, value: Any, aliases: Iterable[str] = (), overwrite: bool = False
    ) -> None:
        """Register ``value`` under ``name`` and ``aliases``.

        Every name is checked before the registry changes, so a rejected
        call leaves it as it was.  A taken name raises, unless ``overwrite``
        is set and the name belongs to ``name``'s own registration; that
        registration is then replaced whole, so none of its old aliases
        keeps resolving to the old value.
        """
        names = (name, *aliases)
        for candidate in names:
            if not isinstance(candidate, str) or not candidate:
                raise ModelConfigError(
                    f"{self.kind} names and aliases must be non-empty strings, got {candidate!r}"
                )
        own = name.lower()
        for candidate in names:
            taken = self._entries.get(candidate.lower())
            if taken is not None and not (overwrite and taken[0].lower() == own):
                raise ModelConfigError(
                    f"{self.kind} {candidate!r} is already registered "
                    f"(for {taken[0]!r}); pass overwrite=True to replace it"
                )
        if overwrite:
            self._drop(own)
        for candidate in names:
            self._entries[candidate.lower()] = (name, value)
        Registry._generation += 1

    def unregister(self, name: str) -> None:
        """Remove ``name``'s registration and every alias registered with it."""
        self.lookup(name)  # an unknown name raises
        self._drop(self._entries[name.lower()][0].lower())
        Registry._generation += 1

    def names(self) -> Tuple[str, ...]:
        """Canonical names of every registration, sorted."""
        return tuple(sorted({canonical for canonical, _ in self._entries.values()}))

    def lookup(self, name: str) -> Any:
        """The value registered under ``name`` or one of its aliases."""
        entry = self._entries.get(name.lower())
        if entry is None:
            raise ModelConfigError(
                f"unknown {self.kind} {name!r}; registered: {', '.join(self.names())}"
            )
        return entry[1]

    def name_of(self, value: Any) -> Optional[str]:
        """The canonical name of the first registration whose value equals ``value``."""
        for canonical, registered in self._entries.values():
            if registered == value:
                return canonical
        return None

    def _drop(self, canonical: str) -> None:
        for key in [key for key, (owner, _) in self._entries.items() if owner.lower() == canonical]:
            del self._entries[key]
