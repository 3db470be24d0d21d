"""First-divergence debugger over flight recordings.

Given two recordings written by :class:`repro.obs.flight.FlightRecorder`
(or two run directories holding one recording each), this module
answers "**where** did these runs stop being bitwise-identical?":

1. If the footer digests match, the recordings are identical — done.
2. Otherwise the checkpoint digests are **binary-searched** for the
   first checkpoint whose rolling digest disagrees.  Divergence of a
   rolling (prefix-sensitive) digest is monotone over checkpoints, so
   the search brackets the fork to one checkpoint window without
   scanning the whole log.
3. The bracketed window is scanned line-by-line for the first entry
   that differs, and the result is reported with causal context: the
   differing fields, the span stack of both sides (when span artifacts
   are available), the RNG streams whose draw counters disagree, and
   the last K matching events before the fork.

A divergent *checkpoint* line with identical event records around it is
itself diagnostic: the per-event ``draws`` totals matched while the
per-stream counters forked — two streams traded draws one-for-one —
and the report names exactly those streams.

Everything here works on *files and loaded values only*; the module
never imports the kernel, keeping ``repro.obs`` at the bottom of the
layer DAG.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.flight import CHUNK_PATTERN, FLIGHT_VERSION, FOOTER_FILE
from repro.obs.spans import Span, ancestors, span_index

PathLike = Union[str, Path]

#: Default number of trailing matched events echoed in a report.
DEFAULT_CONTEXT = 5
#: Spans artifact expected next to a recording's parent run directory.
SPANS_SIBLING = "spans.jsonl"


@dataclass
class FlightRecording:
    """One loaded flight recording: footer + parsed log lines.

    ``entries`` preserves file order (event records interleaved with
    checkpoint lines); ``checkpoint_positions`` maps checkpoint ordinal
    → index into ``entries``.
    """

    path: str
    footer: Dict[str, Any]
    entries: List[Dict[str, Any]]
    checkpoint_positions: List[int]
    spans: Optional[List[Span]] = None

    @property
    def digest(self) -> str:
        """Final rolling digest over every log line."""
        return str(self.footer["digest"])

    @property
    def events(self) -> int:
        """Event records in the recording (checkpoint lines excluded)."""
        return int(self.footer["events"])

    def checkpoint_entry(self, ordinal: int) -> Dict[str, Any]:
        """The checkpoint *line* (with stream counters) at ``ordinal``."""
        return self.entries[self.checkpoint_positions[ordinal]]


def load_recording(path: PathLike) -> FlightRecording:
    """Load and integrity-check one recording directory.

    Verifies the footer's rolling digest against the chunk bytes, so a
    corrupt or hand-edited recording fails loudly (``ValueError``)
    instead of producing a nonsense alignment.
    """
    directory = Path(path)
    footer_path = directory / FOOTER_FILE
    if not footer_path.is_file():
        raise ValueError(f"not a flight recording (no {FOOTER_FILE}): {directory}")
    footer = json.loads(footer_path.read_text())
    if footer.get("version") != FLIGHT_VERSION:
        raise ValueError(
            f"unsupported flight recording version {footer.get('version')!r} "
            f"in {footer_path}"
        )
    digest = hashlib.sha256()
    entries: List[Dict[str, Any]] = []
    checkpoint_positions: List[int] = []
    for chunk in range(int(footer.get("chunks", 0))):
        chunk_path = directory / CHUNK_PATTERN.format(chunk)
        for line in chunk_path.read_text().splitlines():
            if not line:
                continue
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
            entry = json.loads(line)
            if "checkpoint" in entry:
                checkpoint_positions.append(len(entries))
            entries.append(entry)
    if digest.hexdigest() != footer["digest"]:
        raise ValueError(f"flight recording digest mismatch in {directory}")
    recording = FlightRecording(
        path=str(directory),
        footer=footer,
        entries=entries,
        checkpoint_positions=checkpoint_positions,
    )
    spans_path = directory.parent / SPANS_SIBLING
    if spans_path.is_file():
        from repro.obs.export import load_spans_jsonl

        recording.spans = load_spans_jsonl(spans_path)
    return recording


def discover_recording(path: PathLike) -> FlightRecording:
    """Load the recording at ``path`` or inside run directory ``path``.

    Accepts either a recording directory itself (containing
    ``footer.json``) or a run directory with a ``flight/`` recording
    inside (the layout produced by ``export_run``).
    """
    root = Path(path)
    if (root / FOOTER_FILE).is_file():
        return load_recording(root)
    if (root / "flight" / FOOTER_FILE).is_file():
        return load_recording(root / "flight")
    raise ValueError(f"no flight recording found under {root}")


@dataclass(frozen=True)
class StreamDelta:
    """One RNG stream whose draw counters disagree at the fork."""

    stream: str
    left: int
    right: int

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for the JSON report."""
        return {"stream": self.stream, "left": self.left, "right": self.right}


@dataclass
class DivergenceReport:
    """Where (and how) two recordings stop matching.

    ``kind`` is one of ``identical``, ``event`` (an event record
    differs), ``rng-checkpoint`` (only per-stream counters differ) or
    ``truncated`` (one log is a strict prefix of the other).
    """

    kind: str
    left_events: int = 0
    right_events: int = 0
    index: Optional[int] = None
    left_entry: Optional[Dict[str, Any]] = None
    right_entry: Optional[Dict[str, Any]] = None
    fields: List[str] = field(default_factory=list)
    streams: List[StreamDelta] = field(default_factory=list)
    context: List[Dict[str, Any]] = field(default_factory=list)
    left_stack: Optional[str] = None
    right_stack: Optional[str] = None
    window: Optional[Tuple[int, int]] = None
    probes: int = 0

    @property
    def identical(self) -> bool:
        """Whether the two recordings are bitwise-identical."""
        return self.kind == "identical"

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for ``--json`` output."""
        return {
            "kind": self.kind,
            "left_events": self.left_events,
            "right_events": self.right_events,
            "index": self.index,
            "left_entry": self.left_entry,
            "right_entry": self.right_entry,
            "fields": list(self.fields),
            "streams": [delta.to_dict() for delta in self.streams],
            "context": [dict(entry) for entry in self.context],
            "left_stack": self.left_stack,
            "right_stack": self.right_stack,
            "window": list(self.window) if self.window is not None else None,
            "probes": self.probes,
        }


def _differing_fields(left: Dict[str, Any], right: Dict[str, Any]) -> List[str]:
    """Sorted keys on which two parsed log entries disagree."""
    keys = set(left) | set(right)
    sentinel = object()
    return sorted(
        key for key in keys if left.get(key, sentinel) != right.get(key, sentinel)
    )


def _stream_deltas(
    left: Dict[str, int], right: Dict[str, int]
) -> List[StreamDelta]:
    """Streams whose counters differ between two counter tables."""
    names = set(left) | set(right)
    return [
        StreamDelta(stream=name, left=int(left.get(name, 0)), right=int(right.get(name, 0)))
        for name in sorted(names)
        if int(left.get(name, 0)) != int(right.get(name, 0))
    ]


def _span_stack(span_id: Optional[int], spans: Optional[Sequence[Span]]) -> Optional[str]:
    """``root > … > leaf`` rendering of a span's ancestor chain."""
    if span_id is None or spans is None:
        return None
    index = span_index(list(spans))
    leaf = index.get(span_id)
    if leaf is None:
        return f"#{span_id} (span not in artifact)"
    chain = ancestors(leaf, index) + [leaf]
    return " > ".join(f"#{span.span_id} {span.name}" for span in chain)


def _first_divergent_checkpoint(
    left: FlightRecording, right: FlightRecording
) -> Tuple[Optional[int], int]:
    """Binary-search the first paired checkpoint whose digests differ.

    Returns ``(ordinal, probes)``; ordinal is ``None`` when every paired
    checkpoint agrees.  Valid because a rolling digest that has diverged
    stays diverged: the predicate "digests differ at ordinal i" is
    monotone in ``i``.
    """
    left_index = left.footer.get("checkpoints", [])
    right_index = right.footer.get("checkpoints", [])
    paired = min(len(left_index), len(right_index))
    probes = 0
    if paired == 0:
        return None, probes
    lo, hi = 0, paired - 1
    if left_index[hi]["digest"] == right_index[hi]["digest"]:
        return None, 1
    probes += 1
    first = hi
    while lo <= hi:
        mid = (lo + hi) // 2
        probes += 1
        if left_index[mid]["digest"] != right_index[mid]["digest"]:
            first = mid
            hi = mid - 1
        else:
            lo = mid + 1
    return first, probes


def find_divergence(
    left: FlightRecording,
    right: FlightRecording,
    context: int = DEFAULT_CONTEXT,
) -> DivergenceReport:
    """Locate the first divergent log entry between two recordings."""
    report = DivergenceReport(
        kind="identical",
        left_events=left.events,
        right_events=right.events,
    )
    if left.digest == right.digest and left.events == right.events:
        return report
    if left.footer.get("checkpoint_interval") != right.footer.get(
        "checkpoint_interval"
    ):
        raise ValueError(
            "recordings use different checkpoint intervals "
            f"({left.footer.get('checkpoint_interval')} vs "
            f"{right.footer.get('checkpoint_interval')}); re-record with "
            "matching settings"
        )

    first_ck, probes = _first_divergent_checkpoint(left, right)
    report.probes = probes
    # A checkpoint's indexed digest covers the lines *strictly before*
    # its own line, so a matching digest still leaves the checkpoint
    # line itself (its streams table) as a fork candidate — every
    # window below therefore starts AT the last agreeing checkpoint
    # line, not after it.
    if first_ck is None:
        paired = min(len(left.checkpoint_positions), len(right.checkpoint_positions))
        start = left.checkpoint_positions[paired - 1] if paired > 0 else 0
        end = min(len(left.entries), len(right.entries))
    else:
        start = left.checkpoint_positions[first_ck - 1] if first_ck > 0 else 0
        end = min(
            left.checkpoint_positions[first_ck],
            right.checkpoint_positions[first_ck],
        ) + 1
    report.window = (start, end)

    for position in range(start, end):
        left_entry = left.entries[position]
        right_entry = right.entries[position]
        if left_entry == right_entry:
            continue
        report.index = position
        report.left_entry = left_entry
        report.right_entry = right_entry
        report.fields = _differing_fields(left_entry, right_entry)
        if "checkpoint" in left_entry or "checkpoint" in right_entry:
            report.kind = "rng-checkpoint"
            report.streams = _stream_deltas(
                dict(left_entry.get("streams", {})),
                dict(right_entry.get("streams", {})),
            )
        else:
            report.kind = "event"
            report.streams = _stream_deltas(
                _counters_at_or_after(left, position),
                _counters_at_or_after(right, position),
            )
            report.left_stack = _span_stack(left_entry.get("span"), left.spans)
            report.right_stack = _span_stack(right_entry.get("span"), right.spans)
        report.context = _matching_context(left, position, context)
        return report

    # Every compared entry matched: one log must be a prefix of the other.
    report.kind = "truncated"
    report.index = end
    shorter = left if len(left.entries) <= len(right.entries) else right
    longer = right if shorter is left else left
    if end < len(longer.entries):
        extra = longer.entries[end]
        if shorter is left:
            report.right_entry = extra
        else:
            report.left_entry = extra
    report.streams = _stream_deltas(
        dict(left.footer.get("streams", {})), dict(right.footer.get("streams", {}))
    )
    report.context = _matching_context(left, end, context)
    return report


def _counters_at_or_after(recording: FlightRecording, position: int) -> Dict[str, int]:
    """Stream counters from the first checkpoint at/after ``position``.

    Falls back to the footer's final counters when the divergence sits
    after the last checkpoint.
    """
    for checkpoint_position in recording.checkpoint_positions:
        if checkpoint_position >= position:
            entry = recording.entries[checkpoint_position]
            return {name: int(count) for name, count in entry.get("streams", {}).items()}
    return {
        name: int(count)
        for name, count in recording.footer.get("streams", {}).items()
    }


def _matching_context(
    recording: FlightRecording, position: int, context: int
) -> List[Dict[str, Any]]:
    """The last ``context`` matching *event* records before ``position``."""
    matched: List[Dict[str, Any]] = []
    for entry in reversed(recording.entries[:position]):
        if "checkpoint" in entry:
            continue
        matched.append(entry)
        if len(matched) >= context:
            break
    return list(reversed(matched))


@dataclass
class RunAlignment:
    """The divergence report for two runs, with the paths compared."""

    left_path: str
    right_path: str
    report: DivergenceReport

    @property
    def identical(self) -> bool:
        """Whether the two runs' recordings are bitwise-identical."""
        return self.report.identical

    def first_divergence(self) -> Optional[DivergenceReport]:
        """The report when the runs diverged, else ``None``."""
        return None if self.report.identical else self.report

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for ``--json`` output."""
        return {
            "left": self.left_path,
            "right": self.right_path,
            "identical": self.identical,
            "report": self.report.to_dict(),
        }


def align_runs(
    left_path: PathLike,
    right_path: PathLike,
    context: int = DEFAULT_CONTEXT,
) -> RunAlignment:
    """Compare the recordings of two runs (or two recordings)."""
    report = find_divergence(
        discover_recording(left_path), discover_recording(right_path), context=context
    )
    return RunAlignment(
        left_path=str(left_path), right_path=str(right_path), report=report
    )


def _render_entry(entry: Optional[Dict[str, Any]]) -> str:
    """One-line rendering of a parsed log entry."""
    if entry is None:
        return "(absent)"
    if "checkpoint" in entry:
        return (
            f"checkpoint #{entry['checkpoint']} after {entry['events']} events "
            f"digest={str(entry.get('digest', ''))[:12]}…"
        )
    span = entry.get("span")
    span_text = f"#{span}" if span is not None else "-"
    return (
        f"seq={entry.get('seq')} t={entry.get('time')} kind={entry.get('kind')} "
        f"callback={entry.get('callback')} span={span_text} "
        f"draws={entry.get('draws')}"
    )


def render_report(report: DivergenceReport) -> str:
    """Human-readable rendering of one divergence report."""
    if report.identical:
        return f"identical ({report.left_events} events, digests match)"
    lines: List[str] = []
    if report.kind == "truncated":
        lines.append(
            f"DIVERGED — one recording is a prefix of the other "
            f"(left {report.left_events} vs right {report.right_events} events)"
        )
    elif report.kind == "rng-checkpoint":
        lines.append(
            "DIVERGED at an RNG accounting checkpoint "
            "(event records match; streams traded draws)"
        )
    else:
        lines.append(f"DIVERGED at log entry {report.index}")
    if report.window is not None:
        lines.append(
            f"  window: entries {report.window[0]}..{report.window[1]} "
            f"({report.probes} checkpoint probes)"
        )
    if report.kind != "truncated" or report.left_entry or report.right_entry:
        lines.append("  first divergent entry:")
        lines.append(f"    left : {_render_entry(report.left_entry)}")
        lines.append(f"    right: {_render_entry(report.right_entry)}")
    if report.fields:
        lines.append(f"  fields differing: {', '.join(report.fields)}")
    if report.left_stack is not None:
        lines.append(f"  span stack (left) : {report.left_stack}")
    if report.right_stack is not None:
        lines.append(f"  span stack (right): {report.right_stack}")
    if report.streams:
        lines.append("  rng streams disagreeing:")
        for delta in report.streams:
            lines.append(
                f"    {delta.stream}: left={delta.left} right={delta.right}"
            )
    if report.context:
        lines.append(f"  last {len(report.context)} matching events:")
        for entry in report.context:
            lines.append(f"    {_render_entry(entry)}")
    return "\n".join(lines)


def render_alignment(alignment: RunAlignment) -> str:
    """Human-readable rendering of a whole-run alignment."""
    lines = [
        f"left : {alignment.left_path}",
        f"right: {alignment.right_path}",
        render_report(alignment.report),
    ]
    if alignment.identical:
        lines.append("runs are bitwise-identical")
    return "\n".join(lines)
