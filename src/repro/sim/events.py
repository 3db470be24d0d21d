"""Event queue for the discrete-event simulation kernel.

Events are ordered by (time, priority, sequence number).  The sequence
number guarantees a deterministic total order even when many events share
a timestamp, which is essential for reproducibility.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Virtual time at which the event fires.
    priority:
        Tie-breaker among events at the same time; lower fires first.
    seq:
        Monotone sequence number assigned by the queue; final tie-breaker.
    action:
        Zero-argument callable executed when the event fires.
    tag:
        Optional human-readable label used in traces.
    span_id:
        Causal context captured at scheduling time: the id of the span
        that was active when the event was pushed (``None`` untraced).
        The kernel resumes that span around the callback so span trees
        survive the trip through the queue.
    """

    time: float
    priority: int
    seq: int
    action: Callable[[], Any] = field(compare=False)
    tag: str = field(default="", compare=False)
    span_id: Optional[int] = field(default=None, compare=False)


class EventQueue:
    """A priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()

    def push(
        self,
        time: float,
        action: Callable[[], Any],
        priority: int = 0,
        tag: str = "",
        span_id: Optional[int] = None,
    ) -> Event:
        """Schedule ``action`` at virtual ``time`` and return the event."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        event = Event(
            time=time,
            priority=priority,
            seq=next(self._counter),
            action=action,
            tag=tag,
            span_id=span_id,
        )
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the next event, or ``None``."""
        return heapq.heappop(self._heap) if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Return the fire time of the next event without popping."""
        return self._heap[0].time if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return self.peek_time() is not None
