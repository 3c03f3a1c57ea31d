"""An outside-in span recorder for the benchmark's traced runs.

The recorder patches chosen methods of the program's classes with timing
wrappers, keeps every span in memory, and puts the originals back when
the traced run ends.  It touches no file of the program: the entry points
are named in :mod:`layers`, and nothing is patched outside a
``with Recorder(...)`` block.

A span records its entry name, layer, start, end, parent and thread.  A
worker thread's first span takes as parent the span open on the thread
that started the recorder, so work a service hands to its pool still hangs
under the call that caused it.

Calls that are very frequent and call no other wrapped entry point (one
block-program build per thread block, one batcher step per serving
iteration) are *leaves*: rather than a span each, their time and count
are added to the enclosing span.  Nested leaf calls count as calls but
add no time, so a leaf's time is counted once.

Self time is exclusive wall time.  The traced interval is cut at every
span boundary, and each slice goes to the deepest span open in it, or to
nobody (``unattributed``) when no span is open.  Leaf time then moves
from the enclosing span to the leaf's layer.  The layer totals plus the
unattributed time therefore add up to the traced wall time exactly, even
when spans on two threads overlap.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import inspect
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: ``post(recorder, instance, args, result, parent_span)`` — updates the
#: recorder's counters after a wrapped call returns.
PostHook = Callable[["Recorder", Any, tuple, Any, Optional["Span"]], None]


class EntryPoint:
    """One method to wrap: ``owner.attribute``, reported as ``name``."""

    def __init__(
        self,
        owner: Any,
        attribute: str,
        name: str,
        layer: str,
        leaf: bool = False,
        post: Optional[PostHook] = None,
    ) -> None:
        self.owner = owner
        self.attribute = attribute
        self.name = name
        self.layer = layer
        self.leaf = leaf
        self.post = post


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "depth", "thread", "leaf_s", "leaf_calls")

    def __init__(self, name: str, layer: str, start: float, parent: Optional["Span"], thread: int) -> None:
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.thread = thread
        #: Leaf time by leaf layer and leaf calls by entry name folded into
        #: this span; ``None`` until the first leaf call (most spans have
        #: none, and a serving pass records a few hundred thousand spans).
        self.leaf_s: Optional[Dict[str, float]] = None
        self.leaf_calls: Optional[Dict[str, int]] = None


class Recorder:
    """Wraps entry points while active and records spans and counters."""

    def __init__(self, entries: Iterable[EntryPoint]) -> None:
        self.entries = list(entries)
        self.spans: List[Span] = []
        #: Calls per entry name (spans and folded leaf calls alike).
        self.calls: Dict[str, int] = {}
        #: Free-form counters filled by the entries' post hooks.
        self.counters: Dict[str, float] = {}
        #: Objects seen by wrapped methods, kept to read their own
        #: counters at the end: ``{kind: {id: object}}``.
        self.instances: Dict[str, Dict[int, Any]] = {}
        #: ``(label, start, end)`` intervals marked by :meth:`phase`.
        self.phases: List[Tuple[str, float, float]] = []
        self._originals: List[Tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: List[Span] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "Recorder":
        self._local.stack = self._main_stack
        self._local.leaf_depth = 0
        try:
            for entry in self.entries:
                original = entry.owner.__dict__[entry.attribute]
                self._originals.append((entry.owner, entry.attribute, original))
                setattr(entry.owner, entry.attribute, self._wrap(entry, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original back and check that each one is in place."""
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        for owner, attribute, original in self._originals:
            if owner.__dict__[attribute] is not original:
                raise RuntimeError(f"{owner.__name__}.{attribute} was not restored")
        self._originals.clear()

    def phase(self, label: str) -> "_Phase":
        """A context manager marking one phase (``cold``/``warm``) of a pass."""
        return _Phase(self, label)

    def note(self, kind: str, instance: Any) -> None:
        self.instances.setdefault(kind, {})[id(instance)] = instance

    def count(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.leaf_depth = 0
            return local.stack

    def _parent(self, stack: List[Span]) -> Optional[Span]:
        if stack:
            return stack[-1]
        if threading.get_ident() != self._main_thread and self._main_stack:
            return self._main_stack[-1]
        return None

    def _wrap(self, entry: EntryPoint, original: Any) -> Any:
        if isinstance(original, property):
            return property(self._wrap_callable(entry, original.fget), original.fset, original.fdel, original.__doc__)
        if isinstance(original, classmethod):
            return classmethod(self._wrap_callable(entry, original.__func__))
        return self._wrap_callable(entry, original)

    def _wrap_callable(self, entry: EntryPoint, function: Callable) -> Callable:
        recorder = self
        name = entry.name
        post = entry.post
        clock = time.perf_counter

        def begin() -> Tuple[List[Span], Span]:
            recorder.calls[name] = recorder.calls.get(name, 0) + 1
            stack = recorder._stack()
            span = Span(name, entry.layer, clock(), recorder._parent(stack), threading.get_ident())
            recorder.spans.append(span)
            stack.append(span)
            return stack, span

        def end(stack: List[Span], span: Span) -> None:
            span.end = clock()
            # Coroutine spans on one thread may close out of order.
            if stack[-1] is span:
                stack.pop()
            else:
                stack.remove(span)

        def after(args: tuple, result: Any, parent: Optional[Span]) -> Any:
            if post is not None:
                post(recorder, args[0] if args else None, args, result, parent)
            return result

        if entry.leaf:

            @functools.wraps(function)
            def leaf(*args: Any, **kwargs: Any) -> Any:
                stack = recorder._stack()
                parent = recorder._parent(stack)
                if parent is None:
                    return spanned(*args, **kwargs)
                recorder.calls[name] = recorder.calls.get(name, 0) + 1
                local = recorder._local
                if local.leaf_depth:
                    result = function(*args, **kwargs)
                else:
                    local.leaf_depth = 1
                    start = clock()
                    try:
                        result = function(*args, **kwargs)
                    finally:
                        elapsed = clock() - start
                        local.leaf_depth = 0
                        if parent.leaf_s is None:
                            parent.leaf_s = {}
                        parent.leaf_s[entry.layer] = parent.leaf_s.get(entry.layer, 0.0) + elapsed
                if parent.leaf_calls is None:
                    parent.leaf_calls = {}
                parent.leaf_calls[name] = parent.leaf_calls.get(name, 0) + 1
                return after(args, result, parent)

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def spanned(*args: Any, **kwargs: Any) -> Any:
                stack, span = begin()
                try:
                    result = await function(*args, **kwargs)
                finally:
                    end(stack, span)
                return after(args, result, span.parent)

        else:

            @functools.wraps(function)
            def spanned(*args: Any, **kwargs: Any) -> Any:
                stack, span = begin()
                try:
                    result = function(*args, **kwargs)
                finally:
                    end(stack, span)
                return after(args, result, span.parent)

        return leaf if entry.leaf else spanned

    # ------------------------------------------------------------------
    def exclusive_seconds(self) -> List[float]:
        """Each span's exclusive wall time, before leaf time is moved out."""
        spans = self.spans
        events: List[Tuple[float, int, int]] = []
        for index, span in enumerate(spans):
            events.append((span.start, 1, index))
            events.append((span.end, 0, index))
        events.sort()
        exclusive = [0.0] * len(spans)
        ended = [False] * len(spans)
        open_heap: List[Tuple[int, int]] = []
        previous = None
        for moment, kind, index in events:
            while open_heap and ended[-open_heap[0][1]]:
                heapq.heappop(open_heap)
            if open_heap and previous is not None:
                exclusive[-open_heap[0][1]] += moment - previous
            previous = moment
            if kind:
                heapq.heappush(open_heap, (-spans[index].depth, -index))
            else:
                ended[index] = True
        return exclusive

    def self_seconds(self) -> Dict[str, Dict[str, float]]:
        """Self time by layer, per phase and in total (``"all"``)."""
        table: Dict[str, Dict[str, float]] = {"all": {}}
        for span, exclusive, phase in zip(self.spans, self.exclusive_seconds(), self.span_phases()):
            shares = {span.layer: exclusive}
            if span.leaf_s:
                leaf_total = sum(span.leaf_s.values())
                # A leaf ran inside its span on the span's own thread, so
                # its time is part of the span's exclusive time unless
                # another thread's deeper span covered it; scale down then.
                scale = min(1.0, exclusive / leaf_total) if leaf_total else 0.0
                for layer, seconds in span.leaf_s.items():
                    shares[layer] = shares.get(layer, 0.0) + seconds * scale
                shares[span.layer] -= leaf_total * scale
            for key in ("all", phase):
                row = table.setdefault(key, {})
                for layer, seconds in shares.items():
                    row[layer] = row.get(layer, 0.0) + seconds
        return table

    def span_phases(self) -> List[str]:
        """For each span, the label of the phase interval it started in."""
        phases = self.phases
        starts = [start for _, start, _ in phases]
        labels = []
        for span in self.spans:
            position = bisect.bisect_right(starts, span.start) - 1
            inside = position >= 0 and span.start <= phases[position][2]
            labels.append(phases[position][0] if inside else "outside")
        return labels

    def calls_in(self, phase: str) -> Dict[str, int]:
        """Calls per entry name made during one phase."""
        counts: Dict[str, int] = {}
        for span, label in zip(self.spans, self.span_phases()):
            if label != phase:
                continue
            counts[span.name] = counts.get(span.name, 0) + 1
            for name, calls in (span.leaf_calls or {}).items():
                counts[name] = counts.get(name, 0) + calls
        return counts

    @property
    def wall_seconds(self) -> float:
        return sum(end - start for _, start, end in self.phases)

    # ------------------------------------------------------------------
    def chrome_events(self) -> Iterator[Dict[str, Any]]:
        """The wall timeline as Chrome trace events (Perfetto reads them).

        Phases go on their own track; each thread that ran a span gets a
        track, and every span carries its index and its parent's index.
        """
        origin = min([start for _, start, _ in self.phases] + [span.start for span in self.spans] or [0.0])
        tracks: Dict[int, int] = {self._main_thread: 1}
        index_of = {id(span): index for index, span in enumerate(self.spans)}
        for label, start, end in self.phases:
            yield {"name": label, "cat": "phase", "ph": "X", "pid": 1, "tid": 0,
                   "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6}
        for index, span in enumerate(self.spans):
            args: Dict[str, Any] = {"span": index}
            if span.parent is not None:
                args["parent"] = index_of[id(span.parent)]
            if span.leaf_calls:
                args["leaf_calls"] = span.leaf_calls
                args["leaf_s"] = span.leaf_s
            yield {"name": span.name, "cat": span.layer, "ph": "X", "pid": 1,
                   "tid": tracks.setdefault(span.thread, len(tracks) + 1),
                   "ts": (span.start - origin) * 1e6, "dur": (span.end - span.start) * 1e6,
                   "args": args}
        yield {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "phases"}}
        for thread, tid in tracks.items():
            label = "main" if thread == self._main_thread else f"worker-{tid}"
            yield {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": label}}

    def write_chrome_trace(self, path: str) -> None:
        """Write :meth:`chrome_events` as a Chrome trace-event JSON file."""
        with open(path, "w") as handle:
            handle.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            for position, event in enumerate(self.chrome_events()):
                if position:
                    handle.write(",\n")
                handle.write(json.dumps(event, separators=(",", ":")))
            handle.write("\n]}\n")


class _Phase:
    def __init__(self, recorder: Recorder, label: str) -> None:
        self.recorder = recorder
        self.label = label

    def __enter__(self) -> None:
        self.start = time.perf_counter()

    def __exit__(self, *exc_info: Any) -> None:
        self.recorder.phases.append((self.label, self.start, time.perf_counter()))
