"""Streaming, byte-stable flight recorder for simulator dispatch.

The :class:`FlightRecorder` answers "what exactly happened, in order?".
The simulation kernel calls :meth:`FlightRecorder.record` once per
dispatched event — after the event's callback has run — with the event's
primitive coordinates.  Each call appends one canonical-JSON line

``{"callback": ..., "draws": ..., "kind": ..., "seq": ..., "span": ...,
"time": ...}``

where ``draws`` is the RNG draw count since recording began, sampled
*after* the callback, so the first line that differs between two
recordings names the exact event during which behavior forked.  Every :data:`checkpoint interval
<DEFAULT_CHECKPOINT_INTERVAL>` events a checkpoint line snapshots the
rolling SHA-256 digest of all prior lines plus the full per-stream draw
counters, giving the divergence debugger (:mod:`repro.obs.divergence`)
binary-search anchors and per-stream attribution.

Recordings are written as chunked JSONL (``chunk-000000.jsonl``, ...)
plus a ``footer.json`` carrying the final digest, the checkpoint index,
and the final stream counters.  Two same-seed runs produce byte-identical
chunk and footer files, so CI can ``cmp`` them directly.

Like :class:`repro.obs.profile.SimProfiler`, the recorder holds no
reference to the kernel or RNG registry types — the kernel binds draw
accessors as plain callables (:meth:`bind_rng`), keeping ``repro.obs``
at the bottom of the layer DAG.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.obs.manifest import canonical_json

PathLike = Union[str, Path]

#: Format version written into every recording footer.
FLIGHT_VERSION = "repro.flight/1"
#: Footer file name inside a recording directory.
FOOTER_FILE = "footer.json"
#: Chunk file name pattern (zero-padded so lexical order = chunk order).
CHUNK_PATTERN = "chunk-{:06d}.jsonl"
#: Events between checkpoint lines.
DEFAULT_CHECKPOINT_INTERVAL = 64
#: JSONL lines per chunk file.
DEFAULT_CHUNK_LINES = 4096


def callback_identity(action: Callable[..., Any]) -> str:
    """Deterministic ``module:qualname`` identity of an event callback.

    Unwraps ``functools.partial`` layers, ``__wrapped__`` chains and
    bound methods; callable objects fall back to their class.  The
    result contains no memory addresses, so two same-seed runs agree on
    every identity byte-for-byte.
    """
    target: Any = action
    for _ in range(8):
        if isinstance(target, functools.partial):
            target = target.func
            continue
        wrapped = getattr(target, "__wrapped__", None)
        if wrapped is not None:
            target = wrapped
            continue
        break
    func = getattr(target, "__func__", target)
    qualname = getattr(func, "__qualname__", None)
    if qualname is None:
        cls = type(target)
        return f"{getattr(cls, '__module__', '?')}:{cls.__qualname__}"
    return f"{getattr(func, '__module__', None) or '?'}:{qualname}"


class FlightRecorder:
    """Streams per-event records with rolling digests to chunked JSONL.

    The hot-path surface is a single method (:meth:`record`) doing one
    dict build, one digest update and one list append, so recorder-on
    runs stay within the benchmark gate's 1.5x-of-tracing budget
    (``benchmarks/bench_obs_overhead.py``).

    Parameters
    ----------
    checkpoint_interval:
        Events between checkpoint lines (digest + stream counters).
    chunk_lines:
        JSONL lines per chunk file when streaming to a directory.
    """

    def __init__(
        self,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        chunk_lines: int = DEFAULT_CHUNK_LINES,
    ) -> None:
        if checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if chunk_lines <= 0:
            raise ValueError("chunk_lines must be positive")
        self._interval = checkpoint_interval
        self._chunk_lines = chunk_lines
        self._digest = hashlib.sha256()
        self._pending: List[str] = []
        self._chunks_written = 0
        self._directory: Optional[Path] = None
        self._events = 0
        self._checkpoints: List[Dict[str, Any]] = []
        self._draw_total: Callable[[], int] = lambda: 0
        self._draw_counts: Callable[[], Dict[str, int]] = dict
        self._started = False
        self._base_total = 0
        self._base_counts: Dict[str, int] = {}
        self._finalized = False
        # Hot-path cache: JSON-escaped forms of callback identities and
        # event kinds, which repeat heavily across a run's events.
        self._escaped: Dict[str, str] = {}

    # -- wiring ------------------------------------------------------------
    def bind_rng(
        self,
        draw_total: Callable[[], int],
        draw_counts: Callable[[], Dict[str, int]],
    ) -> None:
        """Bind RNG draw accessors (plain callables, no RNG types here)."""
        self._draw_total = draw_total
        self._draw_counts = draw_counts

    def bind_directory(self, directory: PathLike) -> None:
        """Stream chunks into ``directory`` as they fill up.

        Without a bound directory the recorder buffers lines in memory
        until :meth:`finalize` is given a directory.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        self._directory = target

    def start(self) -> None:
        """Capture the RNG draw baseline; idempotent.

        The kernel calls this right before dispatching events.  All
        ``draws`` totals and stream tables in the recording are *deltas
        against this baseline*, so construction-time randomness (whose
        stream names may embed process-global identifiers) never leaks
        into the recording — recordings compare across runs that built
        any number of other simulators first.
        """
        if self._started:
            return
        self._started = True
        self._base_total = self._draw_total()
        self._base_counts = dict(self._draw_counts())

    # -- introspection -----------------------------------------------------
    @property
    def record_count(self) -> int:
        """Event records written so far (checkpoint lines excluded)."""
        return self._events

    @property
    def digest(self) -> str:
        """Rolling SHA-256 over every line written so far."""
        return self._digest.hexdigest()

    def checkpoints(self) -> List[Dict[str, Any]]:
        """Checkpoint index entries written so far (copies)."""
        return [dict(entry) for entry in self._checkpoints]

    # -- recording (kernel hot path) ---------------------------------------
    def record(
        self,
        seq: int,
        time: float,
        kind: str,
        callback: str,
        span_id: Optional[int],
    ) -> None:
        """Append one event record (the kernel calls this per dispatch).

        ``draws`` snapshots the total RNG draw count *after* the event's
        callback ran, so a divergent record is the event during which
        randomness consumption (or anything else) forked.
        """
        if self._finalized:
            raise RuntimeError("flight recorder already finalized")
        if not self._started:
            self.start()
        # Hand-built canonical JSON: byte-identical to json.dumps with
        # sorted keys and minimal separators (CPython's encoder renders
        # floats with repr), but without paying the encoder per event.
        # test_flight pins the equivalence.
        escaped = self._escaped
        callback_json = escaped.get(callback)
        if callback_json is None:
            callback_json = escaped[callback] = json.dumps(callback)
        kind_json = escaped.get(kind)
        if kind_json is None:
            kind_json = escaped[kind] = json.dumps(kind)
        draws = self._draw_total() - self._base_total
        span_json = "null" if span_id is None else str(span_id)
        self._append(
            f'{{"callback":{callback_json},"draws":{draws},'
            f'"kind":{kind_json},"seq":{seq},"span":{span_json},'
            f'"time":{float(time)!r}}}'
        )
        self._events += 1
        if self._events % self._interval == 0:
            self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        """Emit a checkpoint line: digest-so-far + per-stream counters.

        The recorded digest covers every line *before* the checkpoint
        line itself, so comparing checkpoint digests brackets divergence
        to the preceding window.
        """
        ordinal = len(self._checkpoints)
        index_entry = {
            "checkpoint": ordinal,
            "events": self._events,
            "digest": self._digest.hexdigest(),
        }
        self._checkpoints.append(index_entry)
        line_entry = dict(index_entry)
        line_entry["streams"] = self._stream_counts()
        self._append(json.dumps(line_entry, sort_keys=True, separators=(",", ":")))

    def _stream_counts(self) -> Dict[str, int]:
        """Per-stream draws since :meth:`start` (zero-delta streams omitted)."""
        base = self._base_counts
        return {
            name: count - base.get(name, 0)
            for name, count in self._draw_counts().items()
            if count - base.get(name, 0) > 0
        }

    def _append(self, line: str) -> None:
        self._digest.update(line.encode("utf-8"))
        self._digest.update(b"\n")
        self._pending.append(line)
        if self._directory is not None and len(self._pending) >= self._chunk_lines:
            self._flush_chunk()

    def _flush_chunk(self) -> None:
        assert self._directory is not None
        path = self._directory / CHUNK_PATTERN.format(self._chunks_written)
        path.write_text("\n".join(self._pending) + "\n")
        self._chunks_written += 1
        self._pending = []

    # -- finalization ------------------------------------------------------
    def footer_dict(self) -> Dict[str, Any]:
        """The footer payload as of now (written by :meth:`finalize`)."""
        return {
            "version": FLIGHT_VERSION,
            "events": self._events,
            "digest": self._digest.hexdigest(),
            "checkpoint_interval": self._interval,
            "chunk_lines": self._chunk_lines,
            "chunks": self._chunks_written + (1 if self._pending else 0),
            "checkpoints": [dict(entry) for entry in self._checkpoints],
            "streams": self._stream_counts(),
        }

    def finalize(self, directory: Optional[PathLike] = None) -> Dict[str, str]:
        """Flush pending lines and write ``footer.json``.

        Returns artifact kind → path (``{"flight": <directory>}``).  The
        recorder refuses further :meth:`record` calls afterwards.
        """
        if directory is not None:
            self.bind_directory(directory)
        if self._directory is None:
            raise ValueError("no directory bound; pass one to finalize()")
        footer = self.footer_dict()
        if self._pending:
            self._flush_chunk()
        (self._directory / FOOTER_FILE).write_text(canonical_json(footer) + "\n")
        self._finalized = True
        return {"flight": str(self._directory)}

    def manifest_section(self) -> Dict[str, Any]:
        """Compact summary recorded into the run manifest."""
        return {
            "digest": self._digest.hexdigest(),
            "events": self._events,
        }

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(events={self._events}, "
            f"checkpoints={len(self._checkpoints)})"
        )
