"""Causal span tracing over the virtual clock.

A :class:`Span` is one named, timed step of a run (a query, a retrieval
leaf, a retry, a message delivery) with a parent pointer; together the
spans of a run form a forest of cause→effect trees.  The
:class:`SpanTracer` owns the spans and the *active-span stack*: code
wraps its work in ``with tracer.span("name"):`` and every span opened
inside the block becomes a child of it.

The tracer is deliberately kernel-friendly: the simulation kernel
captures :attr:`SpanTracer.current_id` when a callback is scheduled and
calls :meth:`resume`/:meth:`release` around its execution, so causality
survives the trip through the event queue — a retry fired three virtual
seconds later is still a descendant of the query that caused it.

Determinism contract: span ids come from a local sequence counter and
all timestamps are read from the bound virtual clock, so two same-seed
runs produce byte-identical span trees.
"""

from __future__ import annotations

import hashlib
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

Clock = Callable[[], float]


def _zero_clock() -> float:
    return 0.0


def derive_trace_id(seed: int, scope: str = "") -> str:
    """Deterministic 16-hex trace id from a seed and an optional scope.

    Pure function of its inputs (SHA-256, truncated), so two same-seed
    runs agree on the trace id.
    """
    payload = f"trace:{seed}:{scope}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class Span:
    """One timed, attributed step in a run's causal tree."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float] = None
    status: str = "ok"
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Virtual-time width of the span (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def annotate(self, **attributes: Any) -> None:
        """Attach (or overwrite) attributes on the span."""
        self.attributes.update(attributes)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by the JSONL exporter."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict`."""
        return cls(
            span_id=int(payload["span_id"]),
            parent_id=(
                int(payload["parent_id"]) if payload["parent_id"] is not None else None
            ),
            name=str(payload["name"]),
            start=float(payload["start"]),
            end=(float(payload["end"]) if payload["end"] is not None else None),
            status=str(payload.get("status", "ok")),
            attributes=dict(payload.get("attributes", {})),
        )


class _NullSpan(Span):
    """Inert span handed out when tracing is disabled or capped."""

    def annotate(self, **attributes: Any) -> None:  # noqa: ARG002 - deliberate no-op
        return None


#: Shared inert span: annotating it is a no-op, recording never happens.
NULL_SPAN = _NullSpan(span_id=-1, parent_id=None, name="", start=0.0, end=0.0)


class SpanTracer:
    """Collects the span forest of one run.

    Parameters
    ----------
    enabled:
        A disabled tracer hands out :data:`NULL_SPAN` everywhere and
        records nothing; call sites can therefore instrument
        unconditionally.
    clock:
        Virtual-time source; the kernel rebinds it via
        :meth:`bind_clock` so spans carry simulation timestamps.
    max_spans:
        Recording cap mirroring :class:`~repro.sim.trace.TraceRecorder`'s
        record cap: spans beyond it are dropped (children of a dropped
        span attach to the nearest *recorded* ancestor) and counted in
        :attr:`dropped_spans`.
    trace_id:
        Identifier of the run's trace; usually set by
        :func:`derive_trace_id`.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Optional[Clock] = None,
        max_spans: int = 200_000,
        trace_id: str = "",
    ):
        self._enabled = enabled
        self._clock: Clock = clock if clock is not None else _zero_clock
        self._max_spans = max_spans
        self._spans: List[Span] = []
        self._stack: List[int] = []
        self._frames: List[List[int]] = []
        self._seq = itertools.count()
        self._dropped = 0
        self._trace_id = trace_id

    # -- wiring ----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether this tracer records anything."""
        return self._enabled

    @property
    def trace_id(self) -> str:
        """Identifier of this run's trace."""
        return self._trace_id

    def bind_clock(self, clock: Clock) -> None:
        """Install the virtual-time source (the kernel calls this)."""
        self._clock = clock

    # -- recording -------------------------------------------------------
    def _begin(self, name: str, attributes: Dict[str, Any]) -> Span:
        if len(self._spans) >= self._max_spans:
            self._dropped += 1
            return NULL_SPAN
        span = Span(
            span_id=next(self._seq),
            parent_id=self.current_id,
            name=name,
            start=self._clock(),
            attributes=attributes,
        )
        self._spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a child span for the duration of the ``with`` block."""
        if not self._enabled:
            yield NULL_SPAN
            return
        span = self._begin(name, attributes)
        if span is NULL_SPAN:
            yield span
            return
        self._stack.append(span.span_id)
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            self._stack.pop()
            span.end = self._clock()

    def event(self, name: str, **attributes: Any) -> Span:
        """Record an instantaneous (zero-width) span."""
        if not self._enabled:
            return NULL_SPAN
        span = self._begin(name, attributes)
        if span is not NULL_SPAN:
            span.end = span.start
        return span

    # -- causal context --------------------------------------------------
    @property
    def current_id(self) -> Optional[int]:
        """Id of the innermost active span (``None`` outside any span)."""
        return self._stack[-1] if self._stack else None

    def resume(self, span_id: int) -> None:
        """Re-enter ``span_id``'s causal context (kernel callback entry).

        The current stack is saved as a frame and replaced, so spans the
        callback opens parent onto the *scheduling* span rather than onto
        whatever the kernel happened to be doing.  Balance every call
        with :meth:`release`.
        """
        self._frames.append(self._stack)
        self._stack = [span_id]

    def release(self) -> None:
        """Leave a :meth:`resume`'d context (kernel callback exit)."""
        self._stack = self._frames.pop()

    # -- reading ---------------------------------------------------------
    def spans(self) -> List[Span]:
        """All recorded spans in start order (a copied list)."""
        return list(self._spans)

    @property
    def span_count(self) -> int:
        """Number of recorded spans."""
        return len(self._spans)

    @property
    def dropped_spans(self) -> int:
        """Spans dropped after the recording cap was hit."""
        return self._dropped


#: Shared disabled tracer: call sites do ``tracer = ctx.tracer or NULL_TRACER``
#: once and instrument unconditionally.
NULL_TRACER = SpanTracer(enabled=False)


# ----------------------------------------------------------------------
# Tree helpers (used by the CLI renderer and tests)
# ----------------------------------------------------------------------
def span_index(spans: Sequence[Span]) -> Dict[int, Span]:
    """Map span id → span."""
    return {span.span_id: span for span in spans}


def child_map(spans: Sequence[Span]) -> Dict[Optional[int], List[Span]]:
    """Map parent id (``None`` for roots) → children in id order."""
    children: Dict[Optional[int], List[Span]] = {}
    index = span_index(spans)
    for span in sorted(spans, key=lambda s: s.span_id):
        parent = span.parent_id if span.parent_id in index else None
        children.setdefault(parent, []).append(span)
    return children


def ancestors(span: Span, index: Dict[int, Span]) -> List[Span]:
    """Chain of ancestors from ``span``'s parent up to its root."""
    chain: List[Span] = []
    current = span
    while current.parent_id is not None:
        parent = index.get(current.parent_id)
        if parent is None:
            break
        chain.append(parent)
        current = parent
    return chain


def descendants_of(root_id: int, spans: Sequence[Span]) -> List[Span]:
    """Every span whose ancestor chain passes through ``root_id``."""
    index = span_index(spans)
    found: List[Span] = []
    for span in spans:
        if span.span_id == root_id:
            continue
        if any(a.span_id == root_id for a in ancestors(span, index)):
            found.append(span)
    return found
