"""Discrete-event simulator for thread-block execution on a GPU.

The simulator executes a list of :class:`~repro.gpu.kernel.KernelLaunch`
objects with the semantics the paper's mechanisms depend on:

* **Host launch order.**  Launches are issued by the host one after another;
  each launch call costs the architecture's kernel-launch latency.  A kernel
  can therefore never start before its issue time, which is what makes
  "overlapping kernel invocations" (Section V-E.1) measurable.
* **Stream ordering.**  A kernel becomes *eligible* only when every earlier
  kernel on the same stream has completed all of its thread blocks.  Running
  two dependent kernels on the same stream therefore reproduces the
  StreamSync baseline exactly.
* **Launch-order block scheduling.**  When SM slots are free, pending thread
  blocks are dispatched from eligible kernels in (stream priority, launch
  order) order — the behaviour of CUDA on Volta/Ampere that the wait-kernel
  mechanism relies on (Section III-B).
* **Occupancy-limited SM slots.**  A thread block of a kernel with occupancy
  *k* consumes ``1/k`` of an SM; blocks of different kernels may co-reside
  if capacity allows.  Waves emerge from this capacity constraint.
* **Busy-waiting blocks hold their slots.**  A block whose segment waits on
  an unsatisfied semaphore stays resident, exactly like a spinning CUDA
  thread block.  If every resident block is waiting and nothing can post,
  the simulator raises :class:`~repro.errors.DeadlockError` — the failure
  mode the paper's wait-kernel prevents.

The simulator is deterministic: identical inputs produce identical traces.

Hot-path structure (the invariants the fast paths preserve exactly):

* **Threshold-indexed wakeups.**  CuSync semaphores are *monotone*: their
  values only ever move upward (posts add positive increments) within one
  run.  A blocked wait is therefore a fixed threshold that is
  crossed exactly once, so waiters are indexed per ``(array, index)`` key
  in a min-heap of ``(required value, registration order, block)`` entries
  plus a per-block count of unsatisfied waits.  A post at value ``v`` pops
  only the entries whose thresholds ``v`` crosses — O(log n) per wake —
  and a block resumes when its unsatisfied count reaches zero.  Crossed
  entries resume in registration order, which is exactly the insertion
  order the previous rescan-the-registry implementation woke blocks in,
  so traces are bit-identical.  The rescan implementation survives as the
  ``wake_strategy="rescan"`` reference used by the differential stress
  tests.
* **One semaphore store, resolved once per run.**  The memory holds each
  array as a plain value list; wait checks and posts index those lists
  directly (resolved once per run from
  :meth:`~repro.gpu.memory.GlobalMemory.semaphore_backing_map`) and do
  their own bounds checks.  Poll and atomic counts are kept in run-local
  counters and added to the memory's statistics once, when the run ends.
* **Structure-of-arrays block records.**  The mutable per-block state
  (segment index, duration factor, SM id, dispatch time, wait/work
  accumulators, unsatisfied-wait count) lives in parallel lists indexed by
  a dense block id assigned at dispatch; events carry the id.  This
  replaces one heap-allocated record per block with flat list slots and
  turns the per-event attribute chasing of ``complete_segment`` /
  ``finish_block`` into constant-index loads.
* **Integer SM capacity.**  Free SM capacity is tracked in integer units of
  ``1/lcm(occupancies)`` of an SM, so capacity arithmetic is exact and the
  "emptiest SM first, lowest id on ties" placement rule reduces to an exact
  max-heap pop instead of an O(num_sms) epsilon-compare scan.  The lazy
  heap is compacted (rebuilt from the live per-SM values) whenever stale
  entries outnumber live ones, so long runs never grow it monotonically;
  compaction only drops entries the pops would have skipped, leaving the
  placement sequence unchanged.
* **Incremental dispatch.**  Eligible launches with pending blocks live in
  a list kept sorted by (stream priority, launch index); a dispatch pass
  runs only when an SM slot was freed or a launch became eligible since the
  previous pass — any other event cannot change the placement outcome.
* **Event coalescing, one pop site.**  Events within ``_EPSILON`` of the
  current time are drained before dispatching, so a whole wave frees its
  slots before the next wave is placed.  The loop pops every event in one
  place: a ``coalescing`` flag says whether a pop joins the current
  instant or opens a new one (the past-time check, advancing ``now`` and
  the ``max_sim_time_us`` guard), and each event kind is handled in one
  branch.  A started segment's work is charged and its completion
  scheduled by one routine, whether its waits held at once or it resumed
  after busy-waiting.
* **Fused wait-free segment runs.**  When a block's segment posts (and
  writes) nothing, its completion would only start the next segment, and
  if that segment's waits already hold they hold at that later instant
  too (semaphores only rise).  The block therefore walks forward through
  such segments at once, charging each exactly as the skipped completion
  would have (same clock additions in the same order, same polls,
  overheads and work time), and pushes one event, for the run's last
  segment.  Skipping an event is exact only when nothing could have
  coalesced with it or ordered differently against it, so every fused
  attempt is audited.  No processed event may lie within
  ``2 * _EPSILON`` of a skipped completion, nor two skipped completions
  of each other, unless exactly at the same time: unfused, both would
  have been processed at that one instant.  An event exactly at a run's
  last completion, whose sequence number was taken early, must be the
  last event of a twin run, one that skipped exactly the same completion
  times and so kept its order at every one of them; this check runs as
  that event pops.  The walk itself keeps skipped completions more than
  that window past every event already processed and apart from their
  neighbours in the run.  The rest of the audit is batched: the loop
  records the skipped times and each popped event's time in flat buffers
  (8 bytes an entry, held until the attempt ends), and
  :func:`_fusion_audit_passes` decides once the attempt has run to its
  end, in a few numpy passes, with the decisions of an audit that retires
  each skipped time as events pop.  A failing attempt therefore runs to
  its end before it is replayed.  An attempt whose audit fails, or that
  raises, is thrown away: the memory's semaphores, written tiles and
  statistics return to their state before the attempt, and the run is
  replayed unfused (Time Warp's optimism with rollback, at the
  granularity of one run).  Functional runs, runs with an armed post
  fault and ``wake_strategy="rescan"`` runs never fuse; ``rescan`` is the
  unfused reference the differential tests compare against.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from bisect import insort
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.common.dim3 import Dim3
from repro.errors import (
    DeadlockError,
    LivelockError,
    SemaphoreWaiter,
    SimulationError,
)
from repro.gpu.arch import GpuArchitecture, TESLA_V100
from repro.gpu.costmodel import CostModel
from repro.gpu.kernel import (
    KernelLaunch,
    Segment,
    ThreadBlockProgram,
    row_major_tiles,
)
from repro.gpu.memory import GlobalMemory
from repro.gpu.trace import (
    ExecutionTrace,
    KernelStats,
    analytic_utilization,
    wave_count,
)
from repro.testing.faults import current_post_fault

_EPSILON = 1e-9

# Event kinds (heap entries are ``(time, sequence, kind, payload)``; the
# unique sequence number means kind/payload never participate in ordering).
_EV_SEGMENT_DONE = 0
_EV_ELIGIBLE = 1
_EV_EMPTY_BLOCK = 2
#: The completion of a fused run's last segment (handled like
#: ``_EV_SEGMENT_DONE`` after the audit's exact-tie check).
_EV_RUN_DONE = 3

#: A skipped completion within this distance of a processed event or of
#: another skipped completion fails the fused run's audit.
_FUSION_WINDOW = 2 * _EPSILON
#: How far past ``now`` a run's first skipped completion must lie: every
#: event processed so far lies within ``_EPSILON`` of ``now``.
_FUSION_LEAD = _FUSION_WINDOW + _EPSILON
#: Skip-log entries the audit checks per numpy pass.
_AUDIT_CHUNK = 4096

#: The lazy SM max-heap is rebuilt from the live per-SM free values when it
#: grows past ``max(_SM_HEAP_COMPACT_FACTOR * num_sms, _SM_HEAP_COMPACT_MIN)``
#: entries: at most ``num_sms`` entries can be live, so past the factor the
#: stale entries outnumber them and the pops would mostly skip garbage.
_SM_HEAP_COMPACT_FACTOR = 2
_SM_HEAP_COMPACT_MIN = 64

#: How many blocked-threshold lines the deadlock message embeds; the full
#: list is always available on :attr:`~repro.errors.DeadlockError.waiters`.
_DEADLOCK_REPORT_WAITERS = 16

_entry_order = itemgetter(1)
_entry_key = itemgetter(0)


def _missing_array(name: str) -> None:
    raise SimulationError(f"semaphore array '{name}' was never allocated")


def _raise_semaphore_index_error(name: str, index: int, size: int) -> None:
    raise IndexError(
        f"semaphore index {index} out of range for array '{name}' of size {size}"
    )


class _FusionCoincidence(Exception):
    """A fused run's audit found an event a skipped completion could have moved."""


def _fusion_audit_passes(skip_log: array, pop_times: array) -> bool:
    """Whether a completed fused attempt skipped only completions that could
    not have coalesced or ordered differently with anything it processed.

    ``skip_log`` holds, per walk that skipped something, the skipped
    completion times in the order the walk reached them, then a marker:
    minus the index of the first event popped after the walk.
    ``pop_times`` holds each popped event's time.

    The attempt fails when two distinct skipped times lie within
    ``_FUSION_WINDOW`` of each other, or when a skipped time ``S`` lies
    within the window of, but not exactly at, the time of the first event
    popped after its walk whose ``time + _FUSION_WINDOW`` reaches ``S``:
    unfused, the two would have met within one coalescing instant.  These
    are the decisions of an audit that retires the pending skipped times
    in time order as each event pops, failing a time unless it lies more
    than the window before that event's ``now`` or exactly at its time.
    The walk keeps every skipped time more than ``_FUSION_LEAD`` past the
    events already processed, so such an audit retires them in sorted
    order (where float rounding reorders two of them they lie within the
    window of each other, which fails both), and every ``now`` that could
    differ from the retiring event's time lies more than the window below
    the skipped time, so the event's time alone decides.

    Markers pass both checks: they are negative integers, more than the
    window below every skipped time and from each other unless equal.
    The log is checked ``_AUDIT_CHUNK`` entries at a time and sorted in
    place, which keeps the temporaries, and so the run's peak memory,
    small.
    """
    if not skip_log:
        return True
    log = np.frombuffer(skip_log, dtype=np.float64)
    times = np.frombuffer(pop_times, dtype=np.float64)
    reach = times + _FUSION_WINDOW
    np.maximum.accumulate(reach, out=reach)
    for low in range(0, log.size, _AUDIT_CHUNK):
        chunk = log[low:low + _AUDIT_CHUNK]
        at = np.searchsorted(reach, chunk)
        if at.max() >= times.size:
            return False  # no event reached the time: the run never finished
        met = times[at]
        near = (chunk >= met - _FUSION_WINDOW) & (chunk != met)
        if near.any() and not _pass_after_their_walks(log, low + np.flatnonzero(near), times):
            return False
    log.sort()
    for low in range(0, log.size - 1, _AUDIT_CHUNK):
        high = min(low + _AUDIT_CHUNK, log.size - 1)
        gaps = log[low + 1:high + 1] - log[low:high]
        if ((gaps <= _FUSION_WINDOW) & (gaps != 0.0)).any():
            return False
    return True


def _pass_after_their_walks(log, positions, times) -> bool:
    """Whether the skipped times at ``positions`` of the log pass against
    the first event popped after their walk that reaches them.

    :func:`_fusion_audit_passes` first checks each time against the first
    event popped at all whose ``time + _FUSION_WINDOW`` reaches it, which
    is the same event unless float rounding let an event popped before
    the walk reach the walk's first time.
    """
    markers = np.flatnonzero(log < 0.0)
    for position in positions:
        done = log[position]
        event = int(-log[markers[np.searchsorted(markers, position)]])
        while event < times.size and times[event] + _FUSION_WINDOW < done:
            event += 1
        if event == times.size or not (done < times[event] - _FUSION_WINDOW or done == times[event]):
            return False
    return True


@dataclass(slots=True)
class _LaunchState:
    """Mutable bookkeeping for one kernel launch during simulation."""

    launch: KernelLaunch
    launch_index: int
    issue_time_us: float
    eligible: bool = False
    dispatch_counter: int = 0
    completed_blocks: int = 0
    started: bool = False
    #: Dispatch ordering key: (stream priority, launch index).
    sort_key: Tuple[int, int] = (0, 0)
    #: SM capacity one block consumes, in integer capacity units.
    need_units: int = 0
    #: ``launch.num_blocks``, cached as a plain int for the hot paths.
    num_blocks: int = 0
    #: ``launch.stream.stream_id``, cached for ``finish_block``.
    stream_id: int = 0
    #: The launch's :class:`~repro.gpu.trace.KernelStats` trace entry.
    stats: Optional[KernelStats] = None
    #: Per-block duration factors (vectorized, computed when first eligible).
    factors: Optional[List[float]] = None
    #: Memoized row-major tile list (``None`` when a custom order is set).
    tiles: Optional[Sequence[Dim3]] = None
    #: Trace-stat accumulators (copied into :attr:`stats` at run end; slot
    #: attributes are cheaper than the stats object's dict attributes on
    #: the per-block completion path, and the accumulation order matches
    #: the per-record updates bit for bit).
    first_dispatch_us: float = math.inf
    end_time_us: float = 0.0
    wait_sum_us: float = 0.0
    work_sum_us: float = 0.0

    @property
    def finished(self) -> bool:
        return self.completed_blocks >= self.num_blocks


@dataclass
class SimulationResult:
    """Outcome of one simulator run."""

    total_time_us: float
    trace: ExecutionTrace
    memory: GlobalMemory
    #: Host time at which the last kernel launch call returned.
    host_issue_time_us: float

    def kernel_duration_us(self, name: str) -> float:
        """Wall-clock duration of one kernel (first block start → last end)."""
        return self.trace.kernels[name].duration_us


class GpuSimulator:
    """Execute kernel launches with discrete-event semantics.

    Parameters
    ----------
    arch:
        The GPU architecture to simulate (defaults to the paper's V100).
    memory:
        Global memory to run against.  Kernels that need pre-existing
        semaphore arrays or tensors expect the caller to populate this; a
        fresh :class:`GlobalMemory` is created when omitted.
    functional:
        When true, segments' ``compute`` callables are executed and tile
        reads of tracked tensors are checked for data races.
    tracked_tensors:
        Names of tensors whose tiles are produced *within* the simulated
        pipeline; reads of these are race-checked in functional mode.
    wake_strategy:
        ``"threshold"`` (the default) wakes blocked waiters through the
        threshold index described in the module docstring and, in timing
        runs, fuses wait-free segment runs.  ``"rescan"`` is the unfused
        reference: it keeps the brute-force behaviour — re-evaluating every
        registered waiter's full wait set on each post — processes every
        segment completion as its own event, and exists for the
        differential stress tests.  Both produce bit-identical traces and
        statistics; the threshold index and the fusion require the CuSync
        invariant that semaphore values are monotone non-decreasing within
        a run.
    max_events / max_sim_time_us:
        Livelock watchdogs.  A run that processes more than ``max_events``
        events, or whose simulated clock passes ``max_sim_time_us``
        (``None`` disables the time guard), raises a structured
        :class:`~repro.errors.LivelockError` recording how far the run got
        — a policy bug that posts in a loop fails fast with diagnostics
        instead of stalling the host.
    """

    def __init__(
        self,
        arch: GpuArchitecture = TESLA_V100,
        memory: Optional[GlobalMemory] = None,
        cost_model: Optional[CostModel] = None,
        functional: bool = False,
        tracked_tensors: Optional[Set[str]] = None,
        max_events: int = 50_000_000,
        max_sim_time_us: Optional[float] = None,
        wake_strategy: str = "threshold",
    ) -> None:
        if wake_strategy not in ("threshold", "rescan"):
            raise SimulationError(
                f"unknown wake strategy {wake_strategy!r}; choose 'threshold' or 'rescan'"
            )
        # Negated comparisons, so a NaN limit (which fails every comparison,
        # and so would never trip) is rejected too.
        if not max_events > 0:
            raise SimulationError(f"max_events must be positive, got {max_events}")
        if max_sim_time_us is not None and not max_sim_time_us > 0:
            raise SimulationError(
                f"max_sim_time_us must be positive, got {max_sim_time_us}"
            )
        self.arch = arch
        self.memory = memory if memory is not None else GlobalMemory()
        self.cost_model = cost_model if cost_model is not None else CostModel(arch=arch)
        self.functional = functional
        self.tracked_tensors = set(tracked_tensors) if tracked_tensors is not None else None
        self.max_events = max_events
        self.max_sim_time_us = max_sim_time_us
        self.wake_strategy = wake_strategy
        #: Peak size the lazy SM heap reached in the last run (diagnostic
        #: for the stale-entry compaction; bounded by the compaction limit
        #: plus one wave of pushes).
        self.sm_heap_peak: int = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, launches: Sequence[KernelLaunch]) -> SimulationResult:
        """Simulate the given launches and return the execution trace.

        Timing runs with the threshold wake strategy and no armed post
        fault fuse wait-free segment runs (see the module docstring).  A
        fused attempt whose audit fails once it has run to its end, or
        that raises, is thrown away: the memory returns to its state
        before the attempt, and the run is replayed unfused, which then
        decides the result or the error.
        """
        if not launches:
            raise SimulationError("no kernels to simulate")
        if self.functional or self.wake_strategy == "rescan" or current_post_fault() is not None:
            return self._run(launches, fuse=False)
        checkpoint = self.memory.checkpoint()
        try:
            return self._run(launches, fuse=True)
        except Exception:
            self.memory.restore(checkpoint)
            return self._run(launches, fuse=False)

    def _run(self, launches: Sequence[KernelLaunch], fuse: bool) -> SimulationResult:
        """One simulation attempt; ``fuse`` turns on run fusion and its audit."""
        memory = self.memory
        functional = self.functional
        tracked_tensors = self.tracked_tensors
        rescan = self.wake_strategy == "rescan"
        cost_model = self.cost_model
        # Chaos-test hook: a drop/dup semaphore-post fault armed for this
        # thread's run, or None — the fault-free path costs one extra
        # ``is None`` check per posting segment and is otherwise untouched.
        post_fault = current_post_fault()
        states = self._prepare_launch_states(launches)
        trace = self._prepare_trace(states)
        for state in states:
            state.stats = trace.kernels[state.launch.name]

        # Event queue entries: (time, sequence, kind, payload).
        events: List[Tuple[float, int, int, object]] = []
        sequence = itertools.count()
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        heapify = heapq.heapify

        # Stream bookkeeping: ordered launches per stream.
        stream_queues: Dict[int, List[_LaunchState]] = {}
        for state in states:
            stream_queues.setdefault(state.stream_id, []).append(state)
        stream_positions: Dict[int, int] = {sid: 0 for sid in stream_queues}

        # The head launch of every stream becomes eligible at its issue time.
        for stream_id, queue in stream_queues.items():
            head = queue[0]
            heappush(events, (head.issue_time_us, next(sequence), _EV_ELIGIBLE, head))

        # SM capacity tracking in exact integer units: one SM holds
        # ``capacity_unit`` units, a block of occupancy k consumes
        # ``capacity_unit // k``.  Using the lcm of all occupancies keeps the
        # arithmetic exact, which is what lets the emptiest-SM-first rule be
        # answered by a heap instead of an epsilon-tolerant linear scan while
        # producing bit-identical placements.
        capacity_unit = math.lcm(*{state.launch.occupancy for state in states})
        for state in states:
            state.need_units = capacity_unit // state.launch.occupancy
        num_sms = self.arch.num_sms
        sm_free: List[int] = [capacity_unit] * num_sms
        # Lazy max-heap over (-free, sm_id).  Entries are invalidated by
        # comparing against ``sm_free`` on pop; every capacity change pushes
        # a fresh entry.  Ties on free capacity resolve to the lowest sm_id,
        # exactly like the sequential scan this replaces.  The initial list
        # is sorted, hence already a valid heap.
        sm_heap: List[Tuple[int, int]] = [(-capacity_unit, sm_id) for sm_id in range(num_sms)]
        sm_heap_limit = max(_SM_HEAP_COMPACT_FACTOR * num_sms, _SM_HEAP_COMPACT_MIN)
        sm_heap_peak = num_sms

        # Structure-of-arrays block records, indexed by the dense block id
        # assigned at dispatch.  Slots are pre-allocated (the total block
        # count is known up front) and ids are never reused.
        total_blocks = sum(state.num_blocks for state in states)
        blk_state: List[Optional[_LaunchState]] = [None] * total_blocks
        blk_tile: List[Optional[Dim3]] = [None] * total_blocks
        blk_segments: List[Optional[List[Segment]]] = [None] * total_blocks
        blk_segment_index: List[int] = [0] * total_blocks
        blk_dispatch_index: List[int] = [0] * total_blocks
        blk_sm: List[int] = [0] * total_blocks
        blk_dispatch_time: List[float] = [0.0] * total_blocks
        blk_factor: List[float] = [1.0] * total_blocks
        blk_wait_time: List[float] = [0.0] * total_blocks
        blk_work_time: List[float] = [0.0] * total_blocks
        blk_waiting_since: List[Optional[float]] = [None] * total_blocks
        #: Number of registered-but-uncrossed wait thresholds per block
        #: (threshold strategy: the block resumes when this reaches zero).
        blk_unsatisfied: List[int] = [0] * total_blocks
        #: Keys the block is registered on (rescan reference strategy only).
        blk_registered: List[Optional[Set[Tuple[str, int]]]] = [None] * total_blocks
        #: The block's current fused run: the index of the segment it began
        #: with and that segment's (skipped) completion time.
        blk_run_from: List[int] = [0] * total_blocks
        blk_run_at: List[float] = [0.0] * total_blocks
        # Residency is implicit: a dispatched block's ``blk_state`` slot is
        # cleared when it finishes, so the (cold) deadlock report can scan
        # for still-resident blocks without per-block set maintenance.
        next_block_id = 0

        # Pre-resolved semaphore storage: array name -> raw value list.  The
        # lists are the live backing stores (mutated in place only), so one
        # dict lookup per probe replaces the GlobalMemory accessor chain;
        # poll/atomic statistics accumulate locally and flush once at exit.
        sem_values: Dict[str, List[int]] = memory.semaphore_backing_map()
        sem_values_get = sem_values.get
        polls = 0
        atomics = 0

        # Threshold index: (array, index) -> min-heap of
        # (required value, registration order, block id).  Entries are popped
        # exactly once, when a post crosses their threshold; there are no
        # stale entries to skip or rescans to run.
        waiters: Dict[Tuple[str, int], List[Tuple[int, int, int]]] = {}
        registration = itertools.count()
        # Rescan reference strategy: (array, index) -> insertion-ordered
        # registry of blocked block ids (the pre-threshold-index structure).
        rescan_waiters: Dict[Tuple[str, int], Dict[int, None]] = {}

        # Eligible launches with pending blocks, sorted by (priority, launch
        # index).  ``dispatch_needed`` records whether anything changed since
        # the previous dispatch pass that could make a new placement possible
        # (an SM slot freed or a launch became eligible); every other event
        # leaves the previous pass's "nothing fits" conclusion intact.
        eligible_order: List[_LaunchState] = []
        dispatch_needed = False

        # Synchronization overheads are pure functions of the architecture;
        # hoist them out of the per-segment scheduling path.
        wait_overhead_us = cost_model.wait_overhead_us()
        satisfied_wait_overhead_us = cost_model.satisfied_wait_overhead_us()
        post_overhead_us = cost_model.post_overhead_us()
        wait_resume_latency_us = self.arch.wait_resume_latency_us
        dispatch_gap_us = cost_model.kernel_dispatch_gap_us()

        now = 0.0
        processed = 0
        completed_blocks_total = 0
        #: Busy-wait time of the finished blocks, summed in completion order.
        wait_total = 0.0
        # Fused segment runs, audited once the attempt ends (see
        # :func:`_fusion_audit_passes`): each walk's skipped completion
        # times and its marker, and every popped event's time (8 bytes per
        # entry, held until the attempt ends).
        skip_log = array("d")
        skip_append = skip_log.append
        pop_times = array("d")
        pop_time_append = pop_times.append

        # --------------------------------------------------------------
        # Inner helpers (closures over the run-local state)
        # --------------------------------------------------------------
        def block_name(block_id: int) -> str:
            return f"{blk_state[block_id].launch.name}[tile={blk_tile[block_id]}]"

        def mark_eligible(state: _LaunchState) -> None:
            nonlocal dispatch_needed
            if not state.eligible:
                state.eligible = True
                launch = state.launch
                if state.factors is None:
                    state.factors = cost_model.block_duration_factors(
                        launch.name, state.num_blocks
                    )
                    if launch.tile_order is None:
                        state.tiles = row_major_tiles(launch.grid)
                # Eligible entries carry the dispatch loop's hot fields
                # pre-loaded, so a pass costs one tuple unpack per launch
                # instead of eight attribute chases.
                insort(
                    eligible_order,
                    (
                        state.sort_key,
                        state,
                        launch,
                        state.num_blocks,
                        state.need_units,
                        state.tiles,
                        launch.tile_order,
                        launch.program_builder,
                        state.factors,
                    ),
                    key=_entry_key,
                )
                dispatch_needed = True

        def stream_advance(stream_id: int, time: float) -> None:
            """Move the stream head forward past completed launches."""
            queue = stream_queues[stream_id]
            position = stream_positions[stream_id]
            while position < len(queue) and queue[position].finished:
                position += 1
                if position < len(queue):
                    successor = queue[position]
                    # A queued kernel pays a small device-side dispatch gap
                    # after its stream predecessor completes.
                    when = max(time + dispatch_gap_us, successor.issue_time_us)
                    heappush(events, (when, next(sequence), _EV_ELIGIBLE, successor))
            stream_positions[stream_id] = position

        def schedule_run(block_id: int, end: float, time: float) -> None:
            """Push the completion of the block's wait-free segment run.

            The block's current segment, begun at ``time`` (the current
            ``now``), ends at ``end`` and posts nothing.  While the next
            segment's waits already hold (semaphores only rise, so they
            hold when the segment would start) and the completion between
            them would do nothing else, that completion is skipped: the
            next segment is charged here exactly as :func:`start_segment`
            would charge it then, and its end time goes into ``skip_log``
            for the audit.  One event is pushed, for the run's last
            segment.  A skipped completion must lie more than
            ``_FUSION_WINDOW`` beyond every event processed so far (all of
            them lie within ``_EPSILON`` of ``now``) and from the run's
            neighbouring completions; the walk stops short otherwise.
            """
            nonlocal polls, processed
            segments = blk_segments[block_id]
            index = blk_segment_index[block_id]
            last = len(segments) - 1
            if index < last and end - time > _FUSION_LEAD and not segments[index].writes:
                first = index
                start = end
                factor = blk_factor[block_id]
                work = blk_work_time[block_id]
                reads = 0
                while index < last:
                    segment = segments[index + 1]
                    waits = segment.waits
                    count = len(waits)
                    if count:
                        met = True
                        try:
                            for name, sem, required in waits:
                                if sem_values[name][sem] < required or sem < 0:
                                    met = False
                                    break
                        except (KeyError, IndexError):
                            # Left for the unfused start to report in turn.
                            met = False
                        if not met:
                            break
                        overhead = satisfied_wait_overhead_us * count
                    else:
                        overhead = 0.0
                    posts = segment.posts
                    if posts:
                        overhead += post_overhead_us * len(posts)
                    duration = segment.duration_us * factor + overhead
                    following = end + duration
                    if following - end <= _FUSION_WINDOW:
                        break
                    reads += count
                    work += duration
                    skip_append(end)
                    index += 1
                    end = following
                    if posts or segment.writes:
                        break
                if index > first:
                    skip_append(-len(pop_times))
                    polls += reads
                    # Each skipped completion counts against the watchdog
                    # as the event it replaces would have.
                    processed += index - first
                    blk_work_time[block_id] = work
                    blk_segment_index[block_id] = index
                    blk_run_from[block_id] = first
                    blk_run_at[block_id] = start
                    heappush(events, (end, next(sequence), _EV_RUN_DONE, block_id))
                    return
            heappush(events, (end, next(sequence), _EV_SEGMENT_DONE, block_id))

        def start_segment(block_id: int, segment: Segment, time: float) -> None:
            """Begin the block's current segment, waiting if necessary.

            ``segment`` is ``blk_segments[block_id][blk_segment_index[block_id]]``,
            passed in because every caller already holds it.
            """
            nonlocal polls
            waits = segment.waits
            if waits:
                # One pass over the waits against the raw value lists;
                # unsatisfied thresholds aggregate per key (max required),
                # preserving first-occurrence key order.
                polls += len(waits)
                unsatisfied: Optional[Dict[Tuple[str, int], int]] = None
                for wait in waits:
                    values = sem_values_get(wait.array)
                    if values is None:
                        _missing_array(wait.array)
                    index = wait.index
                    if index < 0 or index >= len(values):
                        _raise_semaphore_index_error(wait.array, index, len(values))
                    required = wait.required
                    if values[index] < required:
                        key = (wait.array, index)
                        if unsatisfied is None:
                            unsatisfied = {key: required}
                        else:
                            previous = unsatisfied.get(key)
                            if previous is None or required > previous:
                                unsatisfied[key] = required
                if unsatisfied is not None:
                    blk_waiting_since[block_id] = time
                    if rescan:
                        registered = blk_registered[block_id]
                        if registered is None:
                            registered = set()
                            blk_registered[block_id] = registered
                        for key in unsatisfied:
                            if key not in registered:
                                rescan_waiters.setdefault(key, {})[block_id] = None
                                registered.add(key)
                    else:
                        blk_unsatisfied[block_id] = len(unsatisfied)
                        for key, required in unsatisfied.items():
                            entry = (required, next(registration), block_id)
                            heap = waiters.get(key)
                            if heap is None:
                                waiters[key] = [entry]
                            else:
                                heappush(heap, entry)
                    return
                overhead = satisfied_wait_overhead_us * len(waits)
            else:
                overhead = 0.0
            run_segment(block_id, segment, overhead, 0.0, time)

        def resume_block(block_id: int, time: float) -> None:
            """Run the blocked segment now that its waits have cleared."""
            nonlocal polls
            waited = time - blk_waiting_since[block_id]
            blk_wait_time[block_id] += waited
            blk_waiting_since[block_id] = None
            segment = blk_segments[block_id][blk_segment_index[block_id]]
            interval = segment.poll_interval_us
            if interval > 0.0 and waited > 0.0:
                # Busy-wait segments (the wait kernel) park in the wake
                # index like everyone else but charge the polls the real
                # spin loop would have issued while parked: one per wait
                # per elapsed poll interval.  Accounting only — times and
                # wake order are identical with or without the charge.
                polls += len(segment.waits) * int(waited / interval)
            overhead = wait_overhead_us * len(segment.waits) + wait_resume_latency_us
            run_segment(block_id, segment, overhead, waited, time)

        def run_segment(
            block_id: int, segment: Segment, overhead: float, waited: float, time: float
        ) -> None:
            """Charge the started segment's work and schedule its completion.

            ``overhead`` is what its waits cost; ``waited`` is how long the
            block busy-waited for them (0.0 when they held at once).
            """
            posts = segment.posts
            if posts:
                overhead += post_overhead_us * len(posts)
            duration = segment.duration_us * blk_factor[block_id] + overhead
            if waited > 0.0 and segment.overlappable_us > 0.0:
                # Work the block performed while busy-waiting (e.g. loading
                # the other operand's tile) does not need to be repeated.
                duration = max(0.0, duration - min(segment.overlappable_us, waited))
            blk_work_time[block_id] += duration
            if functional:
                for access in segment.reads:
                    memory.check_tile_read(
                        access.tensor,
                        access.tile_key,
                        reader=block_name(block_id),
                        tracked_tensors=tracked_tensors,
                    )
            if fuse and not posts:
                schedule_run(block_id, time + duration, time)
            else:
                heappush(events, (time + duration, next(sequence), _EV_SEGMENT_DONE, block_id))

        def wake_threshold(key: Tuple[str, int], value: int, time: float) -> None:
            """Pop the waiters whose thresholds ``value`` crossed; resume at zero."""
            heap = waiters.get(key)
            if not heap or heap[0][0] > value:
                return
            first = heappop(heap)
            crossed: Optional[List[Tuple[int, int, int]]] = None
            while heap and heap[0][0] <= value:
                if crossed is None:
                    crossed = [first]
                crossed.append(heappop(heap))
            if not heap:
                del waiters[key]
            if crossed is None:
                block_id = first[2]
                remaining = blk_unsatisfied[block_id] - 1
                blk_unsatisfied[block_id] = remaining
                if remaining == 0:
                    resume_block(block_id, time)
                return
            # Resume in registration order — the insertion order the rescan
            # registry woke blocks in, keeping traces bit-identical.
            crossed.sort(key=_entry_order)
            for _, _, block_id in crossed:
                remaining = blk_unsatisfied[block_id] - 1
                blk_unsatisfied[block_id] = remaining
                if remaining == 0:
                    resume_block(block_id, time)

        def wake_rescan(key: Tuple[str, int], value: int, time: float) -> None:
            """Reference strategy: re-evaluate every waiter registered on ``key``.

            The re-evaluation is the reference's own bookkeeping, not a poll
            a simulated block issues, so it charges no semaphore reads and
            both strategies report the same ``semaphore_reads``.
            """
            blocked = rescan_waiters.pop(key, None)
            if not blocked:
                return
            still_blocked: Dict[int, None] = {}
            for block_id in blocked:
                if blk_waiting_since[block_id] is None:
                    # Already resumed via another semaphore this instant.
                    continue
                segment = blk_segments[block_id][blk_segment_index[block_id]]
                satisfied = True
                for wait in segment.waits:
                    values = sem_values_get(wait.array)
                    if values is None:
                        _missing_array(wait.array)
                    index = wait.index
                    if index < 0 or index >= len(values):
                        _raise_semaphore_index_error(wait.array, index, len(values))
                    if values[index] < wait.required:
                        satisfied = False
                        break
                if satisfied:
                    # De-register from any other keys it was parked on.
                    registered = blk_registered[block_id]
                    for other in registered:
                        if other != key:
                            other_registry = rescan_waiters.get(other)
                            if other_registry is not None:
                                other_registry.pop(block_id, None)
                    registered.clear()
                    resume_block(block_id, time)
                else:
                    still_blocked[block_id] = None
            if still_blocked:
                rescan_waiters[key] = still_blocked

        wake = wake_rescan if rescan else wake_threshold

        def apply_post(post, time: float) -> None:
            """Apply one semaphore post against the raw storage and wake.

            The caller accounts the atomic operation (batched per segment).
            """
            array = post.array
            values = sem_values_get(array)
            if values is None:
                _missing_array(array)
            index = post.index
            if index < 0 or index >= len(values):
                _raise_semaphore_index_error(array, index, len(values))
            value = values[index] + post.increment
            values[index] = value
            wake((array, index), value, time)

        deferred_blocks_append = trace.deferred_blocks.append

        def finish_block(block_id: int, time: float) -> None:
            """Free the block's SM slot and record its trace row."""
            nonlocal completed_blocks_total, dispatch_needed, sm_heap_peak, wait_total
            state = blk_state[block_id]
            blk_state[block_id] = None  # no longer resident
            sm_id = blk_sm[block_id]
            freed = sm_free[sm_id] + state.need_units
            if freed > capacity_unit:
                freed = capacity_unit
            sm_free[sm_id] = freed
            heappush(sm_heap, (-freed, sm_id))
            # Stale-entry compaction: rebuild from the live per-SM values
            # once stale entries are guaranteed to outnumber them.  Heapify
            # keeps only the live entries; pops return the same value
            # sequence as the lazy heap (which merely skips the stale
            # entries), so placement is unchanged.
            heap_size = len(sm_heap)
            if heap_size > sm_heap_limit:
                if heap_size > sm_heap_peak:
                    sm_heap_peak = heap_size
                sm_heap[:] = [(-free, sm) for sm, free in enumerate(sm_free)]
                heapify(sm_heap)
            state.completed_blocks += 1
            completed_blocks_total += 1
            dispatch_needed = True

            wait_time = blk_wait_time[block_id]
            work_time = blk_work_time[block_id]
            deferred_blocks_append(
                (
                    state.launch.name,
                    state.launch_index,
                    blk_tile[block_id],
                    blk_dispatch_index[block_id],
                    sm_id,
                    blk_dispatch_time[block_id],
                    time,
                    wait_time,
                    work_time,
                )
            )
            if time > state.end_time_us:
                state.end_time_us = time
            state.wait_sum_us += wait_time
            state.work_sum_us += work_time
            wait_total += wait_time

            if state.completed_blocks >= state.num_blocks:
                stream_advance(state.stream_id, time)

        def complete_segment(block_id: int, time: float) -> None:
            nonlocal atomics
            segments = blk_segments[block_id]
            segment_index = blk_segment_index[block_id]
            segment = segments[segment_index]
            if functional and segment.compute is not None:
                segment.compute(memory)
            for access in segment.writes:
                memory.mark_tile_written(access.tensor, access.tile_key)
            posts = segment.posts
            if posts:
                atomics += len(posts)
                if post_fault is None:
                    for post in posts:
                        # Inlined apply_post: this is the producer hot path.
                        array = post.array
                        values = sem_values_get(array)
                        if values is None:
                            _missing_array(array)
                        index = post.index
                        if index < 0 or index >= len(values):
                            _raise_semaphore_index_error(array, index, len(values))
                        value = values[index] + post.increment
                        values[index] = value
                        wake((array, index), value, time)
                else:
                    # Fault-injection path: the armed fault may drop or
                    # duplicate exactly one post of the run.
                    for post in posts:
                        action = post_fault.next_action()
                        if action == "drop":
                            continue
                        apply_post(post, time)
                        if action == "dup":
                            atomics += 1
                            apply_post(post, time)

            segment_index += 1
            if segment_index < len(segments):
                blk_segment_index[block_id] = segment_index
                start_segment(block_id, segments[segment_index], time)
            else:
                finish_block(block_id, time)

        def dispatch(time: float) -> None:
            """Place pending blocks of eligible kernels onto free SM slots."""
            nonlocal dispatch_needed, next_block_id, atomics
            dispatch_needed = False
            if not eligible_order:
                return
            exhausted: Optional[list] = None
            for entry in eligible_order:
                (
                    _,
                    state,
                    launch,
                    num_blocks,
                    need,
                    tiles,
                    tile_order,
                    program_builder,
                    factors,
                ) = entry
                dispatch_counter = state.dispatch_counter
                while dispatch_counter < num_blocks:
                    # Inline take_sm: claim ``need`` units on the emptiest SM.
                    sm_id = -1
                    while sm_heap:
                        neg_free, candidate = sm_heap[0]
                        free = -neg_free
                        if sm_free[candidate] != free:
                            heappop(sm_heap)  # stale entry
                            continue
                        if free < need:
                            # The emptiest SM cannot fit the block.
                            break
                        remaining = free - need
                        sm_free[candidate] = remaining
                        heapreplace(sm_heap, (-remaining, candidate))
                        sm_id = candidate
                        break
                    if sm_id < 0:
                        break
                    dispatch_index = dispatch_counter
                    dispatch_counter += 1
                    tile = (
                        tiles[dispatch_index]
                        if tiles is not None
                        else tile_order(dispatch_index)
                    )
                    program = program_builder(tile)
                    block_id = next_block_id
                    next_block_id += 1
                    blk_state[block_id] = state
                    blk_tile[block_id] = tile
                    blk_dispatch_index[block_id] = dispatch_index
                    blk_sm[block_id] = sm_id
                    blk_dispatch_time[block_id] = time
                    blk_factor[block_id] = factors[dispatch_index]

                    if not state.started:
                        state.started = True
                        state.first_dispatch_us = time
                        # Validate the builder's return type once per launch
                        # (the per-block isinstance check was pure overhead).
                        if not isinstance(program, ThreadBlockProgram):
                            raise TypeError(
                                f"program_builder of kernel '{launch.name}' returned "
                                f"{type(program).__name__}, expected ThreadBlockProgram"
                            )
                        first_posts = launch.on_first_block_start
                        if first_posts:
                            atomics += len(first_posts)
                            for post in first_posts:
                                apply_post(post, time)

                    segments = program.segments
                    blk_segments[block_id] = segments
                    if not segments:
                        # A degenerate empty program completes immediately
                        # (without mutating the — possibly shared — program).
                        heappush(events, (time, next(sequence), _EV_EMPTY_BLOCK, block_id))
                    else:
                        start_segment(block_id, segments[0], time)
                state.dispatch_counter = dispatch_counter
                if dispatch_counter >= num_blocks:
                    if exhausted is None:
                        exhausted = [entry]
                    else:
                        exhausted.append(entry)
            if exhausted is not None:
                for entry in exhausted:
                    eligible_order.remove(entry)

        # --------------------------------------------------------------
        # Main event loop
        # --------------------------------------------------------------
        max_events = self.max_events
        max_sim_time_us = self.max_sim_time_us

        def _livelock(guard: str, limit: float) -> LivelockError:
            return LivelockError(
                f"simulation exceeded {guard}={limit:g} "
                f"({processed} events processed, simulated time {now:.3f} us, "
                f"{completed_blocks_total}/{total_blocks} blocks completed); "
                "likely a livelock in the synchronization policy",
                guard=guard,
                events_processed=processed,
                simulated_time_us=now,
                completed_blocks=completed_blocks_total,
                total_blocks=total_blocks,
                limit=limit,
            )

        def twin_runs(block_id: int, other: tuple) -> bool:
            """Whether ``other``, a heap entry at the time of the fused run of
            ``block_id`` that just ended, is a run that skipped exactly the
            same completion times.

            Unfused, two such runs' events meet at every skipped instant and
            keep the order their first completions were pushed in, which is
            the order their last events were pushed in fused.
            """
            _, _, kind, other_id = other
            if kind != _EV_RUN_DONE:
                return False
            first = blk_run_from[block_id]
            last = blk_segment_index[block_id]
            if (
                blk_run_from[other_id] != first
                or blk_segment_index[other_id] != last
                or blk_run_at[other_id] != blk_run_at[block_id]
                or blk_factor[other_id] != blk_factor[block_id]
            ):
                return False
            mine = blk_segments[block_id]
            theirs = blk_segments[other_id]
            for index in range(first + 1, last + 1):
                a = mine[index]
                b = theirs[index]
                if a is not b and (
                    a.duration_us != b.duration_us
                    or len(a.waits) != len(b.waits)
                    or len(a.posts) != len(b.posts)
                ):
                    return False
            return True

        # Events within ``_EPSILON`` of ``now`` coalesce into its instant:
        # they are popped before the next dispatch pass, so a whole wave
        # frees its slots before the next wave is placed.  ``coalescing``
        # says whether the next pop joins the current instant; a pop that
        # opens a new instant advances ``now``.  Every pop counts against
        # the watchdog, so a livelock that spins at one timestamp (e.g. a
        # zero-delay wake loop) still trips ``max_events``.
        coalescing = False
        try:
            while events:
                processed += 1
                if processed > max_events:
                    raise _livelock("max_events", max_events)
                time, _, kind, payload = heappop(events)
                if not coalescing:
                    if time + _EPSILON < now:
                        raise SimulationError("event queue produced a time in the past")
                    if time > now:
                        now = time
                        if max_sim_time_us is not None and now > max_sim_time_us:
                            raise _livelock("max_sim_time_us", max_sim_time_us)
                if fuse:
                    pop_time_append(time)

                if kind == _EV_SEGMENT_DONE:
                    complete_segment(payload, now)
                elif kind == _EV_RUN_DONE:
                    # The run's last completion took its sequence number
                    # early, so an exact tie could have ordered differently.
                    if events and events[0][0] == time and not twin_runs(payload, events[0]):
                        raise _FusionCoincidence
                    complete_segment(payload, now)
                elif kind == _EV_ELIGIBLE:
                    mark_eligible(payload)
                else:
                    finish_block(payload, now)

                if events and -_EPSILON <= events[0][0] - now <= _EPSILON:
                    coalescing = True
                    continue
                coalescing = False
                if dispatch_needed and eligible_order:
                    dispatch(now)
                if not events and completed_blocks_total < total_blocks:
                    raise self._deadlock_forensics(
                        total_blocks - completed_blocks_total,
                        [
                            block_id
                            for block_id in range(next_block_id)
                            if blk_state[block_id] is not None
                        ],
                        block_name,
                        blk_segments,
                        blk_segment_index,
                        blk_waiting_since,
                        sem_values_get,
                    )
            if not _fusion_audit_passes(skip_log, pop_times):
                raise _FusionCoincidence
        finally:
            # Add the run's poll and atomic counts to the memory's statistics.
            memory.semaphore_reads += polls
            memory.atomic_operations += atomics
            if len(sm_heap) > sm_heap_peak:
                sm_heap_peak = len(sm_heap)
            self.sm_heap_peak = sm_heap_peak

        # Copy the per-launch accumulators into the trace statistics (the
        # per-block updates ran on _LaunchState slots; the accumulation
        # order was identical, so the values match the per-record path bit
        # for bit).
        for state in states:
            stats = state.stats
            stats.start_time_us = state.first_dispatch_us
            stats.end_time_us = state.end_time_us
            stats.total_wait_time_us = state.wait_sum_us
            stats.total_work_time_us = state.work_sum_us

        trace.total_time_us = now
        trace.wait_time_us = wait_total
        host_issue_time = max(state.issue_time_us for state in states)
        return SimulationResult(
            total_time_us=now,
            trace=trace,
            memory=self.memory,
            host_issue_time_us=host_issue_time,
        )

    # ------------------------------------------------------------------
    # Deadlock forensics (cold path: runs once, after the run is dead)
    # ------------------------------------------------------------------
    @staticmethod
    def _deadlock_forensics(
        pending,
        stuck_ids,
        block_name,
        blk_segments,
        blk_segment_index,
        blk_waiting_since,
        sem_values_get,
    ) -> DeadlockError:
        """The error for a deadlocked run, with its wait-graph report.

        ``pending`` blocks cannot make progress; ``stuck_ids`` are the
        resident ones.  The error carries one
        :class:`~repro.errors.SemaphoreWaiter` per blocked threshold (with
        the semaphore's observed value and nearest-miss delta) and, when
        the blocked blocks wait on posts only *other blocked blocks* could
        still perform, the dependency cycle as a list of block names.  Both
        are deterministic: blocks are visited in dispatch order and wait
        keys in first-occurrence order, so the two wake strategies report
        identical forensics.
        """
        waiter_records: List[SemaphoreWaiter] = []
        blocked_keys: Dict[int, List[Tuple[str, int]]] = {}
        for block_id in stuck_ids:
            if blk_waiting_since[block_id] is None:
                continue  # resident but not parked on a wait (defensive)
            segment = blk_segments[block_id][blk_segment_index[block_id]]
            per_key: Dict[Tuple[str, int], int] = {}
            for wait in segment.waits:
                values = sem_values_get(wait.array)
                if values is None or not (0 <= wait.index < len(values)):
                    continue
                if values[wait.index] < wait.required:
                    key = (wait.array, wait.index)
                    previous = per_key.get(key)
                    if previous is None or wait.required > previous:
                        per_key[key] = wait.required
            name = block_name(block_id)
            for (array, index), required in per_key.items():
                waiter_records.append(
                    SemaphoreWaiter(
                        block=name,
                        array=array,
                        index=index,
                        required=required,
                        observed=sem_values_get(array)[index],
                    )
                )
            blocked_keys[block_id] = list(per_key)

        # Wait-for edges: a blocked block depends on every other blocked
        # block whose *remaining* segments contain a post to one of its
        # blocked keys — the only writers that could still appear.
        posters: Dict[Tuple[str, int], List[int]] = {}
        for block_id in stuck_ids:
            segments = blk_segments[block_id]
            for segment in segments[blk_segment_index[block_id]:]:
                for post in segment.posts:
                    posters.setdefault((post.array, post.index), []).append(block_id)
        edges: Dict[int, List[int]] = {}
        for block_id, keys in blocked_keys.items():
            targets: List[int] = []
            for key in keys:
                for poster in posters.get(key, ()):
                    if poster != block_id and poster in blocked_keys:
                        targets.append(poster)
            edges[block_id] = targets

        cycle_ids = GpuSimulator._find_wait_cycle(edges)
        cycle = [block_name(block_id) for block_id in cycle_ids] if cycle_ids else None

        stuck = [block_name(block_id) for block_id in stuck_ids]
        message = (
            "simulated GPU deadlocked: "
            f"{pending} blocks cannot make progress "
            f"({len(stuck)} resident blocks are busy-waiting). "
            "This is the failure the wait-kernel mechanism prevents (Section III-B)."
        )
        if waiter_records:
            shown = waiter_records[:_DEADLOCK_REPORT_WAITERS]
            message += " Blocked thresholds:\n  " + "\n  ".join(
                waiter.describe() for waiter in shown
            )
            hidden = len(waiter_records) - len(shown)
            if hidden:
                message += f"\n  ... and {hidden} more (see .waiters)"
        if cycle:
            message += "\nDependency cycle: " + " -> ".join(cycle + [cycle[0]])
        return DeadlockError(message, waiting_blocks=stuck, waiters=waiter_records, cycle=cycle)

    @staticmethod
    def _find_wait_cycle(edges: Dict[int, List[int]]) -> Optional[List[int]]:
        """First dependency cycle of the wait-for graph, via iterative DFS."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {node: WHITE for node in edges}
        parent: Dict[int, int] = {}
        for start in edges:
            if color[start] != WHITE:
                continue
            color[start] = GRAY
            stack = [(start, iter(edges[start]))]
            while stack:
                node, successors = stack[-1]
                advanced = False
                for target in successors:
                    if target not in color:
                        continue
                    if color[target] == WHITE:
                        color[target] = GRAY
                        parent[target] = node
                        stack.append((target, iter(edges[target])))
                        advanced = True
                        break
                    if color[target] == GRAY:
                        cycle = [node]
                        current = node
                        while current != target:
                            current = parent[current]
                            cycle.append(current)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _prepare_launch_states(self, launches: Sequence[KernelLaunch]) -> List[_LaunchState]:
        states: List[_LaunchState] = []
        host_time = 0.0
        names_seen: Set[str] = set()
        launch_cost = self.cost_model.kernel_launch_us()
        for index, launch in enumerate(launches):
            if launch.name in names_seen:
                raise SimulationError(
                    f"duplicate kernel name '{launch.name}'; launches must be uniquely named"
                )
            names_seen.add(launch.name)
            host_time += launch.issue_delay_us + launch_cost
            states.append(
                _LaunchState(
                    launch=launch,
                    launch_index=index,
                    issue_time_us=host_time,
                    sort_key=(launch.stream.priority, index),
                    num_blocks=launch.num_blocks,
                    stream_id=launch.stream.stream_id,
                )
            )
        return states

    def _prepare_trace(self, states: Sequence[_LaunchState]) -> ExecutionTrace:
        trace = ExecutionTrace(arch=self.arch)
        for state in states:
            launch = state.launch
            trace.kernels[launch.name] = KernelStats(
                name=launch.name,
                launch_index=state.launch_index,
                grid=launch.grid,
                occupancy=launch.occupancy,
                num_blocks=launch.num_blocks,
                issue_time_us=state.issue_time_us,
                waves=wave_count(launch.num_blocks, launch.occupancy, self.arch),
                utilization=analytic_utilization(launch.num_blocks, launch.occupancy, self.arch),
            )
        return trace
