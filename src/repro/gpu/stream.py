"""CUDA stream model.

A CUDA stream is an ordered queue of operations: two kernels launched on the
same stream execute one after the other (the consumer kernel cannot start
until every thread block of the producer has finished).  This is exactly the
*stream synchronization* baseline the paper improves upon; cuSync instead
launches dependent kernels on different streams so their thread blocks can
interleave.

The simulator only needs two properties of streams: the per-stream ordering
constraint and the priority used to order kernel dispatch when several
streams have eligible kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Optional

_stream_ids = count()


@dataclass(frozen=True)
class Stream:
    """A CUDA stream: an identity plus a scheduling priority.

    Lower ``priority`` values mean higher scheduling priority, matching
    CUDA where ``cudaStreamCreateWithPriority`` accepts negative values for
    high-priority streams.
    """

    stream_id: int = field(default_factory=lambda: next(_stream_ids))
    priority: int = 0
    name: Optional[str] = None

    def __str__(self) -> str:
        label = self.name if self.name is not None else f"stream{self.stream_id}"
        return f"{label}(prio={self.priority})"


#: The default stream used when the caller does not create explicit streams,
#: mirroring CUDA's stream 0.
DEFAULT_STREAM = Stream(priority=0, name="default")
