"""3-dimensional sizes and indices, mirroring CUDA's ``dim3``.

The CUDA programming model describes both grids (how many thread blocks a
kernel launches) and thread blocks (how many threads each block contains)
with a 3-component structure ``dim3``.  The paper's framework reasons about
*tiles*, which map one-to-one onto thread blocks, so every grid in this
reproduction is a :class:`Dim3`.

The class is an immutable value type: hashable, comparable and iterable, so
it can be used as a dictionary key (e.g. mapping a thread-block index to its
simulated completion time) and unpacked like a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple, Union


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division, the pervasive grid-size computation.

    CUDA code computes grid sizes as ``ceil(problem / tile)``; this helper is
    the Python equivalent used throughout the kernel and model packages.

    >>> ceil_div(12, 4)
    3
    >>> ceil_div(13, 4)
    4
    """
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    if numerator < 0:
        raise ValueError(f"numerator must be non-negative, got {numerator}")
    return -(-numerator // denominator)


@dataclass(frozen=True, order=True)
class Dim3:
    """An immutable ``(x, y, z)`` triple of non-negative integers.

    The default for each component is 1, matching CUDA where unspecified grid
    or block dimensions default to 1.
    """

    x: int = 1
    y: int = 1
    z: int = 1

    def __post_init__(self) -> None:
        x, y, z = self.x, self.y, self.z
        # One test for the common case (exact non-negative ints); anything
        # else takes the per-component checks and their error messages.
        if type(x) is int and type(y) is int and type(z) is int and x >= 0 and y >= 0 and z >= 0:
            return
        for name in ("x", "y", "z"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise TypeError(f"Dim3.{name} must be an int, got {type(value).__name__}")
            if value < 0:
                raise ValueError(f"Dim3.{name} must be non-negative, got {value}")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, value: Union["Dim3", Sequence[int], int]) -> "Dim3":
        """Coerce an int, sequence or :class:`Dim3` into a :class:`Dim3`."""
        if isinstance(value, Dim3):
            return value
        if isinstance(value, int):
            return cls(value)
        values = tuple(int(v) for v in value)
        if len(values) == 0 or len(values) > 3:
            raise ValueError(f"expected 1 to 3 components, got {len(values)}")
        return cls(*values)

    # ------------------------------------------------------------------
    # Tuple-like behaviour
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        yield self.x
        yield self.y
        yield self.z

    def __len__(self) -> int:
        return 3

    def __getitem__(self, index: int) -> int:
        return (self.x, self.y, self.z)[index]

    def as_tuple(self) -> Tuple[int, int, int]:
        """Return the components as a plain tuple ``(x, y, z)``."""
        return (self.x, self.y, self.z)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @property
    def volume(self) -> int:
        """Total number of elements, i.e. ``x * y * z``.

        For a grid this is the total number of thread blocks the kernel
        launches, the quantity that determines the number of waves.
        """
        return self.x * self.y * self.z

    def ceil_div(self, other: Union["Dim3", Sequence[int], int]) -> "Dim3":
        """Component-wise ceiling division (problem size -> grid size)."""
        other = Dim3.of(other)
        return Dim3(
            ceil_div(self.x, max(other.x, 1)),
            ceil_div(self.y, max(other.y, 1)),
            ceil_div(self.z, max(other.z, 1)),
        )

    def scaled(self, other: Union["Dim3", Sequence[int], int]) -> "Dim3":
        """Component-wise multiplication (grid size * tile size)."""
        other = Dim3.of(other)
        return Dim3(self.x * other.x, self.y * other.y, self.z * other.z)

    def contains(self, index: "Dim3") -> bool:
        """Whether ``index`` is a valid coordinate inside this extent."""
        return 0 <= index.x < self.x and 0 <= index.y < self.y and 0 <= index.z < self.z

    def __str__(self) -> str:
        return f"[{self.x}, {self.y}, {self.z}]"
