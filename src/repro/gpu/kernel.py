"""Kernel launches and per-thread-block programs.

The simulator does not interpret CUDA; instead every kernel describes the
behaviour of one thread block as a small *program*: an ordered list of
:class:`Segment` objects.  A segment corresponds to one synchronization-
relevant phase of the thread block (e.g. "wait for the producer tile of A,
load the A and B tiles, run the main loop over this K chunk") and carries

* the semaphore waits that must be satisfied before the segment can run,
* a modeled duration in microseconds (from :mod:`repro.gpu.costmodel`),
* the semaphore posts performed when the segment finishes,
* optional tensor reads/writes (for data-race checking) and an optional
  callable that performs the real numpy computation in functional mode.

This decomposition is exactly the structure cuSync imposes on kernels in the
paper (Figure 4a): ``stage.wait`` before loading a tile, the tile
computation, and ``stage.post`` after the tile is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.dim3 import Dim3
from repro.common.tiles import delinearize
from repro.common.validation import check_non_negative, check_positive
from repro.gpu.memory import GlobalMemory
from repro.gpu.stream import Stream, DEFAULT_STREAM


class SemWait(NamedTuple):
    """Block until semaphore ``index`` of array ``array`` reaches ``required``.

    The wait is satisfied when the semaphore value is greater than or equal
    to ``required``; semaphores in cuSync only ever increase within one
    pipeline invocation, so the monotone comparison matches the paper's
    busy-wait loop.  (A NamedTuple rather than a frozen dataclass: waits are
    constructed once per planned read chunk, and the C-level tuple
    constructor keeps per-block program building off the profile.)
    """

    array: str
    index: int
    required: int


class SemPost(NamedTuple):
    """Atomically add ``increment`` to semaphore ``index`` of ``array``."""

    array: str
    index: int
    increment: int = 1


@dataclass(frozen=True, slots=True)
class TensorAccess:
    """A read or write of one tile of a named tensor (for race detection)."""

    tensor: str
    tile_key: Hashable


@dataclass(slots=True)
class Segment:
    """One phase of a thread block's execution.

    Segments may be shared between the cached block programs of several
    thread blocks, so the simulator treats them as immutable.  ``reads``
    and ``writes`` are race-detection payload: kernels populate them only
    for functional runs, the only runs that check them.
    """

    #: Human-readable label, e.g. ``"k-chunk 3"`` — only used in traces.
    label: str = ""
    #: Semaphore conditions that must hold before the segment starts.
    waits: List[SemWait] = field(default_factory=list)
    #: Modeled duration of the segment's loads + compute, in microseconds.
    duration_us: float = 0.0
    #: Portion of ``duration_us`` that can be overlapped with busy-waiting on
    #: this segment's semaphores (the "reorder tile loads" optimization: the
    #: block prefetches the non-dependent operand while it waits).  The
    #: simulator credits ``min(overlappable_us, actual wait time)``.
    overlappable_us: float = 0.0
    #: Semaphores posted when the segment completes.
    posts: List[SemPost] = field(default_factory=list)
    #: Tiles of producer-owned tensors this segment reads.
    reads: List[TensorAccess] = field(default_factory=list)
    #: Tiles this segment writes (marked available when the segment ends).
    writes: List[TensorAccess] = field(default_factory=list)
    #: Optional functional computation, executed when the segment completes.
    compute: Optional[Callable[[GlobalMemory], None]] = None
    #: When positive, a block parked on this segment's waits models a
    #: busy-wait loop polling its semaphores every ``poll_interval_us``
    #: (the wait kernel's single-thread spin, Section III-B): on resume it
    #: charges one poll per wait per elapsed interval to the memory
    #: system's read counter.  Purely an accounting refinement — the block
    #: still parks in the wake index and wakes exactly once, so event
    #: counts and times are untouched.  Zero (the default) charges only
    #: the parking-time polls.
    poll_interval_us: float = 0.0

    def __post_init__(self) -> None:
        # Inlined check_non_negative: segments are built once per dispatched
        # block, so the extra call frame was a measurable dispatch cost.
        # Negated, so a NaN (which fails every comparison) is rejected too.
        if not self.duration_us >= 0.0:
            check_non_negative("duration_us", self.duration_us)


@dataclass(slots=True)
class ThreadBlockProgram:
    """The full behaviour of one thread block: an ordered list of segments.

    A kernel may hand one program to every block that behaves identically
    (a GeMM does so for the blocks that post, gate and compute nothing),
    so the simulator treats programs, like their segments, as immutable.
    ``tile`` is then the tile of the block the program was first built
    for; the simulator takes each block's tile from its launch, never
    from the program.
    """

    tile: Dim3
    segments: List[Segment] = field(default_factory=list)

    @property
    def total_duration_us(self) -> float:
        """Sum of the modeled durations of all segments (excludes waiting)."""
        return sum(segment.duration_us for segment in self.segments)

    @property
    def wait_count(self) -> int:
        """Total number of semaphore waits in the program."""
        return sum(len(segment.waits) for segment in self.segments)

    @property
    def post_count(self) -> int:
        """Total number of semaphore posts in the program."""
        return sum(len(segment.posts) for segment in self.segments)


#: Signature of the callable a kernel provides to build a block's program.
ProgramBuilder = Callable[[Dim3], ThreadBlockProgram]

#: Signature of a tile-processing order: maps the dispatch counter value a
#: thread block obtained to the tile it should process.
TileOrderFn = Callable[[int], Dim3]


#: Grids bigger than this are enumerated transiently instead of memoized:
#: the memo's value is amortizing repeated small/medium launches (sweeps,
#: benchmark repeats), not pinning hundred-MB tile tuples of one-off giant
#: grids for the process lifetime.
_ROW_MAJOR_MEMO_MAX_VOLUME = 65_536


def row_major_tiles(grid: Dim3) -> Tuple[Dim3, ...]:
    """All tiles of ``grid`` in CUDA's row-major block enumeration order.

    ``row_major_tiles(grid)[i] == delinearize(i, grid)`` for every dispatch
    index; the memo exists because the default enumeration is a pure
    function of the grid, so the simulator's dispatch loop can index a
    shared tuple instead of constructing (and re-validating) one
    :class:`~repro.common.dim3.Dim3` per dispatched block.  Custom tile
    orders (arbitrary callables) are not memoized, and grids above
    :data:`_ROW_MAJOR_MEMO_MAX_VOLUME` blocks are enumerated per call so
    the process-lifetime cache stays small.
    """
    if grid.volume > _ROW_MAJOR_MEMO_MAX_VOLUME:
        return tuple(delinearize(index, grid) for index in range(grid.volume))
    return _row_major_tiles_memo(grid)


@lru_cache(maxsize=256)
def _row_major_tiles_memo(grid: Dim3) -> Tuple[Dim3, ...]:
    return tuple(delinearize(index, grid) for index in range(grid.volume))


@dataclass
class KernelLaunch:
    """Everything the simulator needs to execute one kernel.

    ``program_builder`` is called lazily, once per thread block, when the
    block is dispatched onto an SM; this keeps the memory footprint of
    simulating kernels with hundreds of blocks small and lets the builder
    capture the block's assigned tile (which depends on the tile order).
    """

    name: str
    grid: Dim3
    program_builder: ProgramBuilder
    #: Resident thread blocks per SM for this kernel.
    occupancy: int = 1
    stream: Stream = DEFAULT_STREAM
    #: Maps a block's dispatch-counter value to the tile it processes.  The
    #: default is CUDA's row-major block enumeration; cuSync installs custom
    #: orders here (Section III-C).
    tile_order: Optional[TileOrderFn] = None
    #: Posts applied when the first block of this kernel starts executing —
    #: models ``stage.start()`` releasing the consumer's wait-kernel.
    on_first_block_start: List[SemPost] = field(default_factory=list)
    #: Extra host-side delay before this launch is issued, in microseconds.
    issue_delay_us: float = 0.0
    #: Free-form metadata propagated into the execution trace.
    tags: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive("occupancy", self.occupancy)
        check_non_negative("issue_delay_us", self.issue_delay_us)
        if self.grid.volume == 0:
            raise ValueError(f"kernel '{self.name}' launched with an empty grid {self.grid}")

    @property
    def num_blocks(self) -> int:
        """Total number of thread blocks in the launch."""
        return self.grid.volume


def simple_kernel(
    name: str,
    grid: Dim3,
    block_duration_us: float,
    occupancy: int = 1,
    stream: Stream = DEFAULT_STREAM,
    posts_per_block: Optional[Callable[[Dim3], Sequence[SemPost]]] = None,
    waits_per_block: Optional[Callable[[Dim3], Sequence[SemWait]]] = None,
) -> KernelLaunch:
    """Build a kernel whose blocks all run one segment of fixed duration.

    This helper exists mainly for tests and micro-benchmarks (e.g. the
    synchronization-overhead study of Section V-D uses a pair of copy
    kernels, each of which is a single-segment block).  The per-block
    programs are tiny and the grids these helpers use are small, so every
    program is built *eagerly* here — the wait/post callables run once per
    tile at construction time — and the launch's ``program_builder`` is a
    dictionary lookup.  Benchmarks that time ``GpuSimulator.run`` on
    simple kernels therefore measure the simulator, not the harness's
    program allocation.
    """
    programs: dict = {}
    for tile in row_major_tiles(grid):
        waits = list(waits_per_block(tile)) if waits_per_block is not None else []
        posts = list(posts_per_block(tile)) if posts_per_block is not None else []
        segment = Segment(label="body", waits=waits, duration_us=block_duration_us, posts=posts)
        programs[tile] = ThreadBlockProgram(tile=tile, segments=[segment])

    return KernelLaunch(
        name=name,
        grid=grid,
        program_builder=programs.__getitem__,
        occupancy=occupancy,
        stream=stream,
    )
