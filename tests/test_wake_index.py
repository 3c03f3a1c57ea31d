"""Differential stress tests for the threshold-indexed wake path.

The simulator's default wake strategy indexes blocked waiters in per-key
min-heaps of value thresholds (O(log n) per post); the pre-existing
brute-force behaviour — re-evaluating every registered waiter's full wait
set on each post — survives as ``wake_strategy="rescan"``.  Both must be
*bit-identical*: every block lands on the same SM at the same time, waits
for the same duration, and the trace rows come out in the same order.

The Hypothesis test drives randomized post/wait interleavings (random
grids, occupancies, stream priorities, posts with increments > 1, waits
with multi-key and duplicate-key conditions, unsatisfiable waits that
deadlock) through both strategies and asserts identical outcomes — the
traces when the pipeline completes, the deadlocked block set when it does
not.  The targeted tests pin the corner cases the index must get right.

``rescan`` is also the reference for fused segment runs: the threshold
path skips the completion events of wait-free chunk runs and audits each
fused run, replaying it unfused on any coincidence.  A second Hypothesis
generator builds multi-chunk block programs on a jitter-free cost model,
so exact ties and near-ties within the simulator's epsilon occur, and the
targeted audit tests build one coincidence of each kind the audit checks.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.dim3 import Dim3
from repro.errors import DeadlockError, LivelockError, SimulationError
from repro.gpu.costmodel import CostModel
from repro.gpu.kernel import (
    KernelLaunch,
    Segment,
    SemPost,
    SemWait,
    ThreadBlockProgram,
    row_major_tiles,
    simple_kernel,
)
from repro.gpu.memory import GlobalMemory
from repro.gpu.simulator import (
    _EPSILON,
    _FUSION_LEAD,
    _FUSION_WINDOW,
    GpuSimulator,
    _fusion_audit_passes,
)
from repro.gpu.stream import Stream
from repro.models import RESNET38_LAYERS, Attention, ConvChain, GptMlp, LlamaMlp
from repro.models.config import GPT3_145B, LLAMA_65B
from repro.pipeline import run

ARRAY = "stress_sems"
ARRAY_B = "stress_sems_b"


def _launch(spec: dict) -> KernelLaunch:
    """A spec's launch: its ``programs`` if it has them, else one segment per block."""
    programs = spec.get("programs")
    if programs is not None:
        return KernelLaunch(
            name=spec["name"],
            grid=spec["grid"],
            program_builder=programs.__getitem__,
            occupancy=spec["occupancy"],
            stream=spec["stream"],
        )
    posts = spec["posts"]
    waits = spec["waits"]
    return simple_kernel(
        name=spec["name"],
        grid=spec["grid"],
        block_duration_us=spec["duration"],
        occupancy=spec["occupancy"],
        stream=spec["stream"],
        posts_per_block=(lambda tile, p=posts: p.get((tile.x, tile.y, tile.z), []))
        if posts
        else None,
        waits_per_block=(lambda tile, w=waits: w.get((tile.x, tile.y, tile.z), []))
        if waits
        else None,
    )


def _run(
    strategy: str,
    kernel_specs: List[dict],
    array_sizes: Dict[str, int],
    cost_model: Optional[CostModel] = None,
) -> Tuple[Optional[dict], Optional[List[str]]]:
    """Simulate one pipeline; return (trace payload, deadlocked blocks)."""
    memory = GlobalMemory()
    for name, size in array_sizes.items():
        memory.alloc_semaphores(name, size)
    launches = [_launch(spec) for spec in kernel_specs]
    simulator = GpuSimulator(memory=memory, cost_model=cost_model, wake_strategy=strategy)
    try:
        result = simulator.run(launches)
    except DeadlockError as error:
        return None, list(error.waiting_blocks)
    trace = result.trace
    payload = {
        "total_time_us": result.total_time_us,
        "blocks": [
            (
                record.kernel,
                (record.tile.x, record.tile.y, record.tile.z),
                record.dispatch_index,
                record.sm_id,
                record.dispatch_time_us,
                record.end_time_us,
                record.wait_time_us,
                record.work_time_us,
            )
            for record in trace.blocks
        ],
        "kernels": {
            name: (
                stats.start_time_us,
                stats.end_time_us,
                stats.total_wait_time_us,
                stats.total_work_time_us,
            )
            for name, stats in sorted(trace.kernels.items())
        },
        "semaphores": memory.snapshot_semaphores(),
        "semaphore_reads": memory.semaphore_reads,
        "atomic_operations": memory.atomic_operations,
    }
    return payload, None


def _assert_strategies_agree(kernel_specs: List[dict], array_sizes: Dict[str, int]) -> None:
    threshold = _run("threshold", kernel_specs, array_sizes)
    rescan = _run("rescan", kernel_specs, array_sizes)
    assert threshold == rescan, (
        "threshold-indexed wake diverged from the brute-force rescanner\n"
        f"threshold: {threshold}\nrescan:    {rescan}"
    )


# ----------------------------------------------------------------------
# Hypothesis: randomized post/wait interleavings
# ----------------------------------------------------------------------
@st.composite
def _pipelines(draw):
    size_a = draw(st.integers(min_value=2, max_value=6))
    size_b = draw(st.integers(min_value=2, max_value=4))
    array_sizes = {ARRAY: size_a, ARRAY_B: size_b}

    def tiles_of(grid: Dim3) -> List[Tuple[int, int, int]]:
        return [
            (x, y, z)
            for z in range(grid.z)
            for y in range(grid.y)
            for x in range(grid.x)
        ]

    num_kernels = draw(st.integers(min_value=2, max_value=3))
    specs = []
    for index in range(num_kernels):
        grid = Dim3(
            draw(st.integers(min_value=1, max_value=4)),
            draw(st.integers(min_value=1, max_value=3)),
            1,
        )
        # Producers early in launch order, waiters later; every kernel may
        # both post and wait so chained wakes and multi-key blocking occur.
        posts: Dict[Tuple[int, int, int], List[SemPost]] = {}
        waits: Dict[Tuple[int, int, int], List[SemWait]] = {}
        for tile in tiles_of(grid):
            tile_posts = draw(
                st.lists(
                    st.tuples(
                        st.sampled_from([ARRAY, ARRAY_B]),
                        st.integers(min_value=0, max_value=size_a - 1),
                        st.integers(min_value=1, max_value=3),
                    ),
                    max_size=2,
                )
            )
            posts[tile] = [
                SemPost(array, min(sem, array_sizes[array] - 1), increment)
                for array, sem, increment in tile_posts
            ]
            if index > 0:
                tile_waits = draw(
                    st.lists(
                        st.tuples(
                            st.sampled_from([ARRAY, ARRAY_B]),
                            st.integers(min_value=0, max_value=size_a - 1),
                            st.integers(min_value=1, max_value=4),
                        ),
                        max_size=3,
                    )
                )
                waits[tile] = [
                    SemWait(array, min(sem, array_sizes[array] - 1), required)
                    for array, sem, required in tile_waits
                ]
        specs.append(
            {
                "name": f"k{index}",
                "grid": grid,
                "duration": draw(st.sampled_from([1.0, 2.0, 3.5])),
                "occupancy": draw(st.integers(min_value=1, max_value=2)),
                "stream": Stream(
                    stream_id=draw(st.integers(min_value=0, max_value=1)),
                    priority=draw(st.integers(min_value=0, max_value=1)),
                    name=f"s{index}",
                ),
                "posts": posts,
                "waits": waits,
            }
        )
    return specs, array_sizes


class TestRandomizedInterleavings:
    @settings(max_examples=60, deadline=None)
    @given(_pipelines())
    def test_threshold_index_matches_rescan(self, pipeline):
        kernel_specs, array_sizes = pipeline
        _assert_strategies_agree(kernel_specs, array_sizes)


# ----------------------------------------------------------------------
# Targeted corner cases
# ----------------------------------------------------------------------
def _spec(name, grid, duration, occupancy, stream, posts=None, waits=None) -> dict:
    return {
        "name": name,
        "grid": grid,
        "duration": duration,
        "occupancy": occupancy,
        "stream": stream,
        "posts": posts or {},
        "waits": waits or {},
    }


PRODUCER_STREAM = Stream(stream_id=0, priority=0, name="producer")
CONSUMER_STREAM = Stream(stream_id=1, priority=1, name="consumer")


class TestThresholdCornerCases:
    def test_one_post_crosses_several_thresholds(self):
        """An increment > 1 must pop every crossed threshold at once."""
        specs = [
            _spec(
                "producer",
                Dim3(1, 1, 1),
                2.0,
                1,
                PRODUCER_STREAM,
                posts={(0, 0, 0): [SemPost(ARRAY, 0, 3)]},
            ),
            _spec(
                "consumers",
                Dim3(3, 1, 1),
                1.0,
                2,
                CONSUMER_STREAM,
                waits={
                    (0, 0, 0): [SemWait(ARRAY, 0, 1)],
                    (1, 0, 0): [SemWait(ARRAY, 0, 2)],
                    (2, 0, 0): [SemWait(ARRAY, 0, 3)],
                },
            ),
        ]
        _assert_strategies_agree(specs, {ARRAY: 1, ARRAY_B: 1})

    def test_block_waiting_on_two_arrays_resumes_on_last(self):
        """The unsatisfied-wait counter reaches zero only when every key posts."""
        specs = [
            _spec(
                "producer",
                Dim3(2, 1, 1),
                2.0,
                1,
                PRODUCER_STREAM,
                posts={
                    (0, 0, 0): [SemPost(ARRAY, 0, 1)],
                    (1, 0, 0): [SemPost(ARRAY_B, 0, 1)],
                },
            ),
            _spec(
                "consumer",
                Dim3(1, 1, 1),
                1.0,
                1,
                CONSUMER_STREAM,
                waits={(0, 0, 0): [SemWait(ARRAY, 0, 1), SemWait(ARRAY_B, 0, 1)]},
            ),
        ]
        _assert_strategies_agree(specs, {ARRAY: 1, ARRAY_B: 1})

    def test_duplicate_key_waits_use_the_max_threshold(self):
        """Two waits on one key register once, at the larger required value."""
        specs = [
            _spec(
                "producer",
                Dim3(3, 1, 1),
                2.0,
                1,
                PRODUCER_STREAM,
                posts={(x, 0, 0): [SemPost(ARRAY, 0, 1)] for x in range(3)},
            ),
            _spec(
                "consumer",
                Dim3(1, 1, 1),
                1.0,
                1,
                CONSUMER_STREAM,
                waits={(0, 0, 0): [SemWait(ARRAY, 0, 1), SemWait(ARRAY, 0, 3)]},
            ),
        ]
        _assert_strategies_agree(specs, {ARRAY: 1, ARRAY_B: 1})

    def test_registration_order_breaks_same_instant_ties(self):
        """Blocks woken by one post resume in registration order."""
        specs = [
            _spec(
                "producer",
                Dim3(1, 1, 1),
                4.0,
                1,
                PRODUCER_STREAM,
                posts={(0, 0, 0): [SemPost(ARRAY, 0, 1)]},
            ),
            _spec(
                "consumers",
                Dim3(4, 1, 1),
                1.0,
                4,
                CONSUMER_STREAM,
                waits={(x, 0, 0): [SemWait(ARRAY, 0, 1)] for x in range(4)},
            ),
        ]
        _assert_strategies_agree(specs, {ARRAY: 1, ARRAY_B: 1})

    def test_unsatisfiable_wait_deadlocks_identically(self):
        specs = [
            _spec(
                "producer",
                Dim3(1, 1, 1),
                2.0,
                1,
                PRODUCER_STREAM,
                posts={(0, 0, 0): [SemPost(ARRAY, 0, 1)]},
            ),
            _spec(
                "consumer",
                Dim3(2, 1, 1),
                1.0,
                1,
                CONSUMER_STREAM,
                waits={
                    (0, 0, 0): [SemWait(ARRAY, 0, 5)],
                    (1, 0, 0): [SemWait(ARRAY_B, 0, 1)],
                },
            ),
        ]
        threshold = _run("threshold", specs, {ARRAY: 1, ARRAY_B: 1})
        rescan = _run("rescan", specs, {ARRAY: 1, ARRAY_B: 1})
        assert threshold == rescan
        assert threshold[0] is None and threshold[1], "expected a deadlock"

    def test_unknown_strategy_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            GpuSimulator(wake_strategy="psychic")


class TestSmHeapCompaction:
    def test_lazy_sm_heap_stays_bounded(self):
        """Releases push one stale entry each; compaction must cap growth."""
        from repro.gpu import simulator as simulator_module

        memory = GlobalMemory()
        memory.alloc_semaphores(ARRAY, 1)
        launch = simple_kernel(
            name="churn",
            grid=Dim3(60, 40, 1),  # 2400 blocks, many waves of take/release
            block_duration_us=1.0,
            occupancy=2,
            stream=PRODUCER_STREAM,
        )
        sim = GpuSimulator(memory=memory)
        result = sim.run([launch])
        assert len(result.trace.blocks) == 2400
        limit = max(
            simulator_module._SM_HEAP_COMPACT_FACTOR * sim.arch.num_sms,
            simulator_module._SM_HEAP_COMPACT_MIN,
        )
        # The peak may overshoot the limit by at most one coalesced wave of
        # releases (compaction runs on the release path), never monotonically.
        per_wave = sim.arch.num_sms * 2
        assert sim.sm_heap_peak <= limit + per_wave + 1


# ----------------------------------------------------------------------
# Fused segment runs against the rescan reference
# ----------------------------------------------------------------------
#: Round durations make exact ties, the pair 4e-10 us either side of 1.0
#: lands within the simulator's 1e-9 us coalescing epsilon of it, and 0.0
#: puts two completions of one block at one instant.
DURATIONS = (0.0, 0.5, 1.0, 1.0 - 4e-10, 1.0 + 4e-10, 2.0)
#: No per-block jitter, so blocks running equal chunks collide.
FLAT = CostModel(duration_jitter=0.0)


@st.composite
def _segmented_pipelines(draw):
    """Kernels whose blocks run one to four chunks, posting after the last.

    Waits target semaphores an earlier kernel posts, at values those posts
    reach; about one wait in ten is raised by one, which may put it out of
    reach, so some pipelines deadlock.  About half the blocks after a
    kernel's first run the program object of an earlier block.
    """
    array_sizes = {
        ARRAY: draw(st.integers(min_value=1, max_value=4)),
        ARRAY_B: draw(st.integers(min_value=1, max_value=3)),
    }
    semaphore = st.tuples(
        st.sampled_from([ARRAY, ARRAY_B]), st.integers(min_value=0, max_value=3)
    ).map(lambda key: (key[0], min(key[1], array_sizes[key[0]] - 1)))
    #: Total increments the kernels generated so far post, per semaphore.
    posted: Dict[Tuple[str, int], int] = {}
    specs = []
    for index in range(draw(st.integers(min_value=2, max_value=3))):
        grid = Dim3(
            draw(st.integers(min_value=1, max_value=3)),
            draw(st.integers(min_value=1, max_value=2)),
            1,
        )
        available = sorted(posted.items())
        kernel_posts: Dict[Tuple[str, int], int] = {}
        programs = {}
        built: List[ThreadBlockProgram] = []
        for tile in row_major_tiles(grid):
            if built and draw(st.booleans()):
                # Blocks may run one program object, as a GeMM's blocks that
                # post nothing do, so several blocks walk one segment list.
                program = draw(st.sampled_from(built))
            else:
                count = draw(st.integers(min_value=1, max_value=4))
                segments = []
                for position in range(count):
                    waits = []
                    if available:
                        for key, total in draw(st.lists(st.sampled_from(available), max_size=2)):
                            required = draw(st.integers(min_value=1, max_value=total))
                            required += draw(st.sampled_from((0,) * 9 + (1,)))
                            waits.append(SemWait(key[0], key[1], required))
                    posts = []
                    if position == count - 1:
                        for key in draw(st.lists(semaphore, min_size=0 if index else 1, max_size=2)):
                            increment = draw(st.integers(min_value=1, max_value=2))
                            posts.append(SemPost(key[0], key[1], increment))
                    segments.append(
                        Segment(
                            label=f"chunk {position}",
                            waits=waits,
                            duration_us=draw(st.sampled_from(DURATIONS)),
                            posts=posts,
                        )
                    )
                program = ThreadBlockProgram(tile=tile, segments=segments)
                built.append(program)
            for post in program.segments[-1].posts:
                key = (post.array, post.index)
                kernel_posts[key] = kernel_posts.get(key, 0) + post.increment
            programs[tile] = program
        for key, increments in kernel_posts.items():
            posted[key] = posted.get(key, 0) + increments
        specs.append(
            {
                "name": f"k{index}",
                "grid": grid,
                "occupancy": draw(st.integers(min_value=1, max_value=2)),
                "stream": Stream(
                    stream_id=draw(st.integers(min_value=0, max_value=1)),
                    priority=draw(st.integers(min_value=0, max_value=1)),
                    name=f"s{index}",
                ),
                "programs": programs,
            }
        )
    return specs, array_sizes


def _assert_fusion_matches_rescan(kernel_specs: List[dict], array_sizes: Dict[str, int]) -> None:
    fused = _run("threshold", kernel_specs, array_sizes, FLAT)
    rescan = _run("rescan", kernel_specs, array_sizes, FLAT)
    assert fused == rescan, (
        "fused segment runs diverged from the unfused rescan reference\n"
        f"fused:  {fused}\nrescan: {rescan}"
    )


class TestFusedRunsMatchRescan:
    @settings(max_examples=80, deadline=None)
    @given(_segmented_pipelines())
    def test_fused_runs_match_rescan(self, pipeline):
        _assert_fusion_matches_rescan(*pipeline)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(_segmented_pipelines())
    def test_fused_runs_match_rescan_at_length(self, pipeline):
        _assert_fusion_matches_rescan(*pipeline)


@pytest.fixture
def attempts(monkeypatch) -> List[bool]:
    """Whether each simulation attempt fused, in order."""
    flags: List[bool] = []
    original = GpuSimulator._run

    def spy(self, launches, fuse):
        flags.append(fuse)
        return original(self, launches, fuse)

    monkeypatch.setattr(GpuSimulator, "_run", spy)
    return flags


def _chains(*chunks: Tuple[object, ...]) -> List[dict]:
    """One kernel whose block ``x`` runs ``chunks[x]``: segments, or durations
    of plain chunks.

    Every block sits on its own SM and starts at 6 us, the V100 launch cost.
    """
    grid = Dim3(len(chunks), 1, 1)
    programs = {
        tile: ThreadBlockProgram(
            tile=tile,
            segments=[
                chunk
                if isinstance(chunk, Segment)
                else Segment(label=f"chunk {position}", duration_us=chunk)
                for position, chunk in enumerate(block)
            ],
        )
        for tile, block in zip(row_major_tiles(grid), chunks)
    }
    return [
        {
            "name": "chains",
            "grid": grid,
            "occupancy": 4,
            "stream": PRODUCER_STREAM,
            "programs": programs,
        }
    ]


class TestFusionAudit:
    """One coincidence per audit rule, each replayed unfused (without the
    rule, the fused run differs from ``rescan``), and the exact meetings
    the audit lets through, which fuse without a replay.
    """

    def _fused_and_reference(self, specs, attempts):
        fused = _run("threshold", specs, {ARRAY: 1}, FLAT)
        fused_attempts = list(attempts)
        assert fused == _run("rescan", specs, {ARRAY: 1}, FLAT)
        return fused, fused_attempts

    def test_wait_free_chain_fuses_without_replay(self, attempts):
        fused, fused_attempts = self._fused_and_reference(_chains((1.0, 1.0, 1.0)), attempts)
        assert fused_attempts == [True]
        assert fused[0]["total_time_us"] == 9.0

    def test_event_near_a_skipped_completion_replays(self, attempts):
        """Unfused, block 0's first completion (7 us) leads the instant and
        block 1's end, 4e-10 us later, coalesces into it: block 1 ends at
        7 us, not at its own event's time."""
        fused, fused_attempts = self._fused_and_reference(
            _chains((1.0, 1.0), (1.0 + 4e-10,)), attempts
        )
        assert fused_attempts == [True, False]
        assert fused[0]["blocks"][0][:2] == ("chains", (1, 0, 0))
        assert fused[0]["blocks"][0][5] == 7.0

    def test_skipped_completions_within_the_window_replay(self, attempts):
        """Unfused, block 1's first completion coalesces into block 0's at
        7 us, so block 1's last chunk starts 4e-10 us early.  No processed
        event lies near either skipped completion."""
        fused, fused_attempts = self._fused_and_reference(
            _chains((1.0, 2.0), (1.0 + 4e-10, 3.0)), attempts
        )
        assert fused_attempts == [True, False]
        assert fused[0]["total_time_us"] == 10.0

    def test_exact_tie_with_a_runs_last_completion_replays(self, attempts):
        """Block 0's run and block 1 both end at exactly 8 us.  Unfused,
        block 0's last event is pushed at 7 us, after block 1's, so block 1
        finishes first; the fused run pushed it at 6 us."""
        fused, fused_attempts = self._fused_and_reference(_chains((1.0, 1.0), (2.0,)), attempts)
        assert fused_attempts == [True, False]
        assert [row[1] for row in fused[0]["blocks"]] == [(1, 0, 0), (0, 0, 0)]

    def test_tied_runs_that_skipped_different_times_replay(self, attempts):
        """Both runs end at 9 us.  Unfused, block 1's last event is pushed
        at its 7 us completion and block 0's at 8 us, so block 1 finishes
        first; fused, block 0's run was pushed first."""
        fused, fused_attempts = self._fused_and_reference(
            _chains((2.0, 1.0), (1.0, 2.0)), attempts
        )
        assert fused_attempts == [True, False]
        assert [row[1] for row in fused[0]["blocks"]] == [(1, 0, 0), (0, 0, 0)]

    def test_identical_runs_fuse_without_replay(self, attempts):
        """Equal skipped completions are processed at one instant unfused,
        and twin runs keep their order at every instant, so their tied
        last events order as they were pushed."""
        fused, fused_attempts = self._fused_and_reference(
            _chains((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (1.0, 3.0)), attempts
        )
        assert fused_attempts == [True]
        assert [row[1] for row in fused[0]["blocks"]] == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]

    def test_event_exactly_at_a_skipped_completion_fuses(self, attempts):
        """Block 1 ends at exactly block 0's skipped 7 us completion: the
        instant is processed at 7 us either way."""
        fused, fused_attempts = self._fused_and_reference(
            _chains((1.0, 1.0), (1.0,)), attempts
        )
        assert fused_attempts == [True]
        assert fused[0]["total_time_us"] == 8.0

    def test_completion_within_epsilon_of_now_is_not_skipped(self, attempts):
        """The first chunk posts at 7.7 us (0.7 us of it is the post); the
        4e-10 us chunk after it ends inside that instant.  Unfused, its
        completion coalesces into 7.7 us, and no later event lies near it
        for the audit to notice, so the walk must not skip it."""
        posting = Segment(label="chunk 0", duration_us=1.0, posts=[SemPost(ARRAY, 0, 1)])
        fused, fused_attempts = self._fused_and_reference(
            _chains((posting, 4e-10, 1.0)), attempts
        )
        assert fused_attempts == [True]
        assert fused[0]["total_time_us"] == 8.7

    def test_chunk_shorter_than_the_window_stops_the_walk(self, attempts):
        """Skipping the completions on both sides of a 4e-10 us chunk would
        put them within the window of each other: the walk stops short
        instead of failing the audit."""
        fused, fused_attempts = self._fused_and_reference(_chains((1.0, 4e-10, 1.0)), attempts)
        assert fused_attempts == [True]
        assert fused[0]["total_time_us"] == 8.0

    def test_watchdog_counts_skipped_completions(self, attempts):
        """Four events unfused (eligibility, three chunks): a three-event
        limit trips fused or not, and reports the unfused count."""
        launches = [_launch(spec) for spec in _chains((1.0, 1.0, 1.0))]
        with pytest.raises(LivelockError) as caught:
            GpuSimulator(cost_model=FLAT, max_events=3).run(launches)
        assert caught.value.events_processed == 4
        assert attempts == [True, False]
        attempts.clear()
        assert GpuSimulator(cost_model=FLAT, max_events=4).run(launches).total_time_us == 9.0
        assert attempts == [True]

    @pytest.mark.parametrize(
        "wait, error",
        [
            (SemWait(ARRAY, 1, 0), IndexError),
            (SemWait(ARRAY, -1, 0), IndexError),
            (SemWait("never_allocated", 0, 0), SimulationError),
        ],
    )
    def test_shared_program_leaves_a_bad_wait_to_the_unfused_start(self, attempts, wait, error):
        """Two blocks run one program whose last chunk waits on a semaphore
        that does not exist.  Each walk skips the second chunk, whose wait
        holds, and must stop before the last, whose start raises fused and
        unfused alike (a walk that read index -1 as the last semaphore
        would skip it and finish)."""
        segments = [
            Segment(label="chunk 0", duration_us=1.0),
            Segment(label="chunk 1", waits=[SemWait(ARRAY, 0, 0)], duration_us=1.0),
            Segment(label="chunk 2", waits=[wait], duration_us=1.0),
        ]
        specs = _chains((), ())
        program = ThreadBlockProgram(Dim3(0, 0, 0), segments)
        specs[0]["programs"] = dict.fromkeys(specs[0]["programs"], program)
        messages = []
        for strategy in ("threshold", "rescan"):
            with pytest.raises(error) as caught:
                _run(strategy, specs, {ARRAY: 1}, FLAT)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert attempts == [True, False, False]

    def test_functional_and_rescan_runs_stay_unfused(self, attempts):
        launches = [_launch(spec) for spec in _chains((1.0, 1.0, 1.0))]
        GpuSimulator(cost_model=FLAT, functional=True).run(launches)
        GpuSimulator(cost_model=FLAT, wake_strategy="rescan").run(launches)
        assert attempts == [False, False]


# ----------------------------------------------------------------------
# The batched audit against the incremental one it replaced
# ----------------------------------------------------------------------
class _Coincidence(Exception):
    pass


def _incremental_audit(timeline: List[tuple]) -> bool:
    """The audit the loop used to run as it popped events, kept verbatim as
    the reference: pending skipped times in a min-heap, retired in time
    order by each popped event they come within the window of."""
    skipped: List[float] = []
    last_skipped = -math.inf
    now = 0.0

    def audit(time: float) -> None:
        nonlocal last_skipped
        floor = now - _FUSION_WINDOW
        limit = time + _FUSION_WINDOW
        while skipped and skipped[0] <= limit:
            done = heapq.heappop(skipped)
            if done >= floor and done != time:
                raise _Coincidence
            if done != last_skipped and done - last_skipped <= _FUSION_WINDOW:
                raise _Coincidence
            last_skipped = done

    try:
        for kind, *values in timeline:
            if kind == "walk":
                for end in values:
                    heapq.heappush(skipped, end)
            else:
                time, now = values
                if skipped and skipped[0] <= time + _FUSION_WINDOW:
                    audit(time)
    except _Coincidence:
        return False
    return True


def _batched_audit(timeline: List[tuple]) -> bool:
    """The simulator's decision, from the buffers its loop records."""
    skip_log, pop_times = array("d"), array("d")
    for kind, *values in timeline:
        if kind == "walk":
            skip_log.extend(values)
            skip_log.append(-len(pop_times))
        else:
            pop_times.append(values[0])
    return _fusion_audit_passes(skip_log, pop_times)


def _ulps(value: float, count: int) -> float:
    """``value`` moved ``count`` representable doubles up (down if negative)."""
    toward = math.inf if count > 0 else -math.inf
    for _ in range(abs(count)):
        value = math.nextafter(value, toward)
    return value


def _first_past(now: float, lead: float) -> float:
    """The least double ``x`` with ``x - now > lead``."""
    x = now + lead
    while x - now > lead:
        x = math.nextafter(x, -math.inf)
    while not x - now > lead:
        x = math.nextafter(x, math.inf)
    return x


def _last_within(now: float, gap: float) -> float:
    """The greatest double ``x`` with ``x - now <= gap``."""
    x = now + gap
    while x - now > gap:
        x = math.nextafter(x, -math.inf)
    while math.nextafter(x, math.inf) - now <= gap:
        x = math.nextafter(x, math.inf)
    return x


#: Offsets from a recorded skipped time for events and for other walks:
#: exact ties, the window's edges and an epsilon either side.
_OFFSETS = (0.0, _FUSION_WINDOW, -_FUSION_WINDOW, _EPSILON, -_EPSILON, 3 * _EPSILON, 0.25)
_ULPS = (-1, 0, 0, 1)


@st.composite
def _timelines(draw):
    """Popped events and walks shaped like a fused attempt's.

    Main pops never go back in time and set ``now``; coalesced pops lie
    within ``_EPSILON`` of it.  A walk's first skipped time lies more than
    ``_FUSION_LEAD`` past ``now`` and each next one more than the window
    past the one before; walks may copy an earlier walk (twin runs), and
    times are placed on, or one ulp either side of, exact ties and the
    ``±_FUSION_WINDOW`` edges of recorded times.  A last pop at or past
    every skipped time ends the attempt, as a run's last event does.
    """
    # At the last ``now``, rounding lets a coalesced event reach the first
    # time a later walk may skip (see the targeted test below).
    now = draw(st.sampled_from((6.0, 37.5, 1234.5678, 0.6699890387686736)))
    timeline: List[tuple] = [("pop", now, now)]
    walks: List[List[float]] = []
    recorded: List[float] = []

    def near_recorded() -> float:
        base = draw(st.sampled_from(recorded))
        return _ulps(base + draw(st.sampled_from(_OFFSETS)), draw(st.sampled_from(_ULPS)))

    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        action = draw(st.sampled_from(("main", "coalesced", "walk", "walk", "twin")))
        if action == "main":
            if recorded and draw(st.booleans()):
                time = near_recorded()
            else:
                time = now + draw(st.sampled_from((0.0, _EPSILON, 0.5, 1.0)))
            if time >= now:
                now = time
                timeline.append(("pop", time, now))
        elif action == "coalesced":
            offset = draw(st.sampled_from((-_EPSILON, 0.0, 0.5 * _EPSILON, _EPSILON, None)))
            if offset is None:
                time = _last_within(now, _EPSILON)
            else:
                time = _ulps(now + offset, draw(st.sampled_from(_ULPS)))
            if -_EPSILON <= time - now <= _EPSILON:
                timeline.append(("pop", time, now))
        elif action == "twin":
            candidates = [walk for walk in walks if walk[0] - now > _FUSION_LEAD]
            if candidates:
                walk = draw(st.sampled_from(candidates))
                timeline.append(("walk", *walk[: draw(st.integers(1, len(walk)))]))
        else:
            start = draw(st.sampled_from(("recorded", "edge", 0.0, _EPSILON, 0.5, 2.0)))
            if start == "recorded" and recorded:
                end = _ulps(near_recorded(), draw(st.sampled_from((1, 1, 2))))
            elif start == "edge" or start == "recorded":
                end = _first_past(now, _FUSION_LEAD)
            else:
                end = _ulps(now + _FUSION_LEAD + start, draw(st.sampled_from((1, 1, 2))))
            if not end - now > _FUSION_LEAD:
                continue
            walk = [end]
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                gap = draw(st.sampled_from((_FUSION_WINDOW, 3 * _EPSILON, 0.5, 1.0)))
                following = _ulps(end + gap, draw(st.sampled_from((1, 1, 2))))
                if following - end <= _FUSION_WINDOW:
                    break
                walk.append(following)
                end = following
            walks.append(walk)
            recorded.extend(walk)
            timeline.append(("walk", *walk))
    last = max(recorded + [now]) + draw(st.sampled_from((0.0, 1.0)))
    timeline.append(("pop", last, last))
    return timeline


class TestBatchedAudit:
    """The audit decided once per attempt makes the decisions the per-pop
    audit made, on timelines built around its edge cases."""

    @settings(max_examples=200, deadline=None)
    @given(_timelines())
    def test_batched_audit_matches_the_incremental_one(self, timeline):
        assert _batched_audit(timeline) == _incremental_audit(timeline)

    @pytest.mark.slow
    @settings(max_examples=2000, deadline=None)
    @given(_timelines())
    def test_batched_audit_matches_the_incremental_one_at_length(self, timeline):
        assert _batched_audit(timeline) == _incremental_audit(timeline)

    def test_an_event_popped_before_the_walk_does_not_retire_its_time(self):
        """At this ``now``, rounding puts a coalesced event's time plus the
        window on the walk's first skipped time, though the walk came after
        the event; the time is retired by the next event."""
        now = 0.6699890387686736
        coalesced = _last_within(now, _EPSILON)
        end = _first_past(now, _FUSION_LEAD)
        assert coalesced + _FUSION_WINDOW >= end
        for last in (now + 5.0, end):
            # The next event far past the time, or exactly at it.
            timeline = [("pop", now, now), ("pop", coalesced, now), ("walk", end), ("pop", last, last)]
            assert _incremental_audit(timeline)
            assert _batched_audit(timeline)


# ----------------------------------------------------------------------
# Model runs fuse in one attempt
# ----------------------------------------------------------------------
def _fuses_once(attempts, graph, policy, arch="V100", cost_model=None) -> None:
    run(graph, scheme="cusync", policy=policy, arch=arch, cost_model=cost_model)
    assert attempts == [True]


class TestModelRunsFuse:
    """Full-size V100 runs of the paper's workloads fuse without a replay."""

    @pytest.mark.parametrize("policy", ["TileSync", "RowSync"])
    def test_gpt3_mlp(self, attempts, policy):
        _fuses_once(attempts, GptMlp(config=GPT3_145B, batch_seq=512).to_graph(), policy)

    @pytest.mark.parametrize("policy", ["TileSync", "RowSync", "StridedTileSync"])
    def test_gpt3_attention(self, attempts, policy):
        graph = Attention(config=GPT3_145B, batch=1, seq=512, cached=0).to_graph()
        _fuses_once(attempts, graph, policy)

    def test_llama_mlp(self, attempts):
        _fuses_once(attempts, LlamaMlp(config=LLAMA_65B, batch_seq=512).to_graph(), "TileSync")

    def test_resnet_conv_chain(self, attempts):
        resnet = {spec.channels: spec for spec in RESNET38_LAYERS}[256]
        _fuses_once(attempts, ConvChain(resnet, batch=1).to_graph(), "Conv2DTileSync")

    def test_jitter_free_gpt3_mlp(self, attempts):
        graph = GptMlp(config=GPT3_145B, batch_seq=512).to_graph()
        _fuses_once(attempts, graph, "TileSync", cost_model=FLAT)
