"""Deterministic sim-time profiler over the kernel's event dispatch.

The :class:`SimProfiler` answers "where does virtual time go?".  The
simulation kernel calls :meth:`SimProfiler.record` once per dispatched
event with the event's causal span id and the (just-advanced) virtual
clock; the profiler attributes the sim-time delta since the previous
event — i.e. the virtual time that elapsed *leading up to* this event —
plus one event count to that span.  At report time the span forest turns
each attribution into a full ``root;child;leaf`` stack, yielding

- **folded-stack output** (:meth:`folded_text`) in the standard
  flamegraph collapsed format, one ``stack value`` line per stack,
  weighted by event count or by sim time in integer microticks; and
- a **top-N hotspot table** (:meth:`hotspots` / :func:`render_hotspots`)
  ranked by attributed sim time.

Everything is a pure function of the deterministic event sequence, so
two same-seed runs emit byte-identical folded output.  The profiler
holds no reference to the kernel or tracer — it receives span ids at
record time and the span list at report time — keeping ``repro.obs`` at
the bottom of the layer DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.spans import Span, span_index

PathLike = Union[str, Path]

#: Stack label for events dispatched outside any span context.
UNATTRIBUTED = "(unattributed)"
#: Stack label for span ids whose spans were dropped at the recording cap.
DROPPED = "(dropped)"
#: Microticks per unit of sim time in sim-time-weighted folded output
#: (flamegraph collapsed format wants integer sample counts).
SIM_TIME_TICKS = 1_000_000


@dataclass(frozen=True)
class HotSpot:
    """One aggregated stack in the profile, ranked by sim time."""

    stack: str
    sim_time: float
    events: int

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by the JSON profile artifact."""
        return {"stack": self.stack, "sim_time": self.sim_time, "events": self.events}


class SimProfiler:
    """Attributes dispatched sim time and event counts to span stacks.

    The hot-path surface is a single method (:meth:`record`) doing one
    dict lookup and two adds, so profiler-on runs stay within the
    benchmark gate's 2x-of-tracing budget
    (``benchmarks/bench_obs_overhead.py``).
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._last_time = 0.0
        #: span id (None = no causal context) → [sim_time, events]
        self._samples: Dict[Optional[int], List[float]] = {}

    # -- recording (kernel hot path) -------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether this profiler records anything."""
        return self._enabled

    def record(self, span_id: Optional[int], now: float) -> None:
        """Attribute the time since the previous event to ``span_id``.

        The kernel calls this once per dispatched event, after advancing
        the clock to the event's time and before running its callback.
        """
        if not self._enabled:
            return
        delta = now - self._last_time
        self._last_time = now
        cell = self._samples.get(span_id)
        if cell is None:
            cell = self._samples[span_id] = [0.0, 0]
        cell[0] += delta
        cell[1] += 1

    @property
    def event_count(self) -> int:
        """Total events attributed so far."""
        return int(sum(cell[1] for cell in self._samples.values()))

    @property
    def total_sim_time(self) -> float:
        """Total sim time attributed so far."""
        return sum(cell[0] for cell in self._samples.values())

    # -- reporting --------------------------------------------------------
    def _stacks(self, spans: Sequence[Span]) -> Dict[str, Tuple[float, int]]:
        """Aggregate samples by full ``root;…;leaf`` stack string."""
        index = span_index(spans)
        stacks: Dict[str, List[float]] = {}
        for span_id, (sim_time, events) in self._samples.items():
            if span_id is None:
                stack = UNATTRIBUTED
            else:
                names: List[str] = []
                current: Optional[int] = span_id
                while current is not None:
                    span = index.get(current)
                    if span is None:
                        names.append(DROPPED)
                        break
                    names.append(span.name)
                    current = span.parent_id
                stack = ";".join(reversed(names))
            cell = stacks.get(stack)
            if cell is None:
                cell = stacks[stack] = [0.0, 0]
            cell[0] += sim_time
            cell[1] += int(events)
        return {stack: (cell[0], int(cell[1])) for stack, cell in stacks.items()}

    def folded(
        self, spans: Sequence[Span], weight: str = "sim_time"
    ) -> List[str]:
        """Folded-stack lines (``stack value``), sorted by stack.

        ``weight`` selects the sample value: ``"sim_time"`` (integer
        microticks, see :data:`SIM_TIME_TICKS`) or ``"events"``.
        """
        if weight not in ("sim_time", "events"):
            raise ValueError(f"unknown folded weight {weight!r}")
        stacks = self._stacks(spans)
        lines: List[str] = []
        for stack in sorted(stacks):
            sim_time, events = stacks[stack]
            value = round(sim_time * SIM_TIME_TICKS) if weight == "sim_time" else events
            lines.append(f"{stack} {value}")
        return lines

    def folded_text(self, spans: Sequence[Span], weight: str = "sim_time") -> str:
        """The folded lines joined for writing to a ``.folded`` file."""
        lines = self.folded(spans, weight=weight)
        return "\n".join(lines) + ("\n" if lines else "")

    def hotspots(self, spans: Sequence[Span], top: int = 10) -> List[HotSpot]:
        """Top-``top`` stacks by attributed sim time (ties by stack name)."""
        stacks = self._stacks(spans)
        ranked = sorted(
            (
                HotSpot(stack=stack, sim_time=sim_time, events=events)
                for stack, (sim_time, events) in stacks.items()
            ),
            key=lambda spot: (-spot.sim_time, spot.stack),
        )
        return ranked[:top]

    def profile_dict(self, spans: Sequence[Span], top: int = 10) -> Dict[str, Any]:
        """Serializable profile artifact (totals + the hotspot table)."""
        return {
            "total_sim_time": self.total_sim_time,
            "total_events": self.event_count,
            "hotspots": [spot.to_dict() for spot in self.hotspots(spans, top=top)],
        }


def render_hotspots(hotspots: Sequence[HotSpot], total_sim_time: float = 0.0) -> str:
    """Text table of a hotspot list (widths fixed, deterministic)."""
    if not hotspots:
        return "(no profile samples)"
    lines = [f"{'sim time':>12}  {'share':>6}  {'events':>8}  stack"]
    for spot in hotspots:
        share = spot.sim_time / total_sim_time if total_sim_time > 0 else 0.0
        lines.append(
            f"{spot.sim_time:>12.4f}  {share:>6.1%}  {spot.events:>8d}  {spot.stack}"
        )
    return "\n".join(lines)


def parse_folded(text: str) -> List[Tuple[str, int]]:
    """Parse folded-stack lines back into ``(stack, value)`` pairs."""
    entries: List[Tuple[str, int]] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack, _, value = line.rpartition(" ")
        if not stack:
            raise ValueError(f"malformed folded line {line_number}: {line!r}")
        try:
            entries.append((stack, int(value)))
        except ValueError as exc:
            raise ValueError(
                f"malformed folded value on line {line_number}: {line!r}"
            ) from exc
    return entries


def write_profile(
    directory: PathLike,
    profiler: SimProfiler,
    spans: Sequence[Span],
    top: int = 10,
) -> Dict[str, str]:
    """Write the profile artifact pair into ``directory``.

    Produces ``profile.folded`` (sim-time-weighted collapsed stacks,
    flamegraph-ready) and ``profile.json`` (totals + hotspot table).
    Returns artifact kind → path.
    """
    from repro.obs.manifest import canonical_json

    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    folded_path = target / "profile.folded"
    folded_path.write_text(profiler.folded_text(spans, weight="sim_time"))
    json_path = target / "profile.json"
    json_path.write_text(canonical_json(profiler.profile_dict(spans, top=top)) + "\n")
    return {"folded": str(folded_path), "profile": str(json_path)}
