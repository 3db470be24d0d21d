"""Observability substrate: causal spans, metrics, manifests, exporters.

``repro.obs`` sits at the very bottom of the layer DAG (below even the
simulation kernel) so every layer — kernel, network, QoS, resilience,
executor, experiments — can record into one shared vocabulary:

- :class:`SpanTracer` / :class:`Span` — causal span trees over the
  virtual clock, propagated through the kernel's event queue.
- :class:`MetricsRegistry` — counters, gauges and fixed-bucket
  histograms with deterministic snapshots.
- :class:`SimProfiler` (``obs.profile``) — sim-time profiler over
  kernel event dispatch: folded-stack flamegraph output + hotspots.
- :class:`FlightRecorder` (``obs.flight``) — streaming byte-stable
  per-event log with rolling digests and per-stream RNG draw counters.
- :func:`align_runs` / :func:`find_divergence` (``obs.divergence``) —
  the first-divergence debugger: binary-search checkpoint digests to
  name the exact event where two recordings fork.
- :class:`SLOSpec` / :class:`SLOMonitor` (``obs.slo``) — declarative
  SLOs evaluated as rolling burn-rate windows, observe-only.
- :class:`RunManifest` / :func:`diff_manifests` — canonical run
  provenance; two runs are attested identical iff their diff is clean.
- JSONL exporters, a markdown dashboard renderer, and the
  ``python -m repro.obs`` CLI (``summary`` / ``spans`` /
  ``diff`` / ``flame`` / ``slo`` / ``divergence``).
"""

from repro.obs.dashboard import append_dashboard, render_dashboard, span_cost_rows
from repro.obs.divergence import (
    DivergenceReport,
    FlightRecording,
    RunAlignment,
    StreamDelta,
    align_runs,
    discover_recording,
    find_divergence,
    load_recording,
    render_alignment,
    render_report,
)
from repro.obs.export import (
    export_run,
    load_manifest,
    load_metrics_jsonl,
    load_spans_jsonl,
    write_manifest,
    write_metrics_jsonl,
    write_spans_jsonl,
)
from repro.obs.flight import FlightRecorder, callback_identity
from repro.obs.manifest import (
    Drift,
    ManifestDiff,
    RunManifest,
    canonical_json,
    config_digest,
    diff_manifests,
    flatten_manifest,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import (
    HotSpot,
    SimProfiler,
    parse_folded,
    render_hotspots,
    write_profile,
)
from repro.obs.slo import (
    SLOMonitor,
    SLOReport,
    SLOSpec,
    SLOStatus,
    load_slo_report,
    write_slo_report,
)
from repro.obs.spans import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    SpanTracer,
    ancestors,
    child_map,
    derive_trace_id,
    descendants_of,
    span_index,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "NULL_SPAN",
    "NULL_TRACER",
    "Counter",
    "DivergenceReport",
    "Drift",
    "FlightRecorder",
    "FlightRecording",
    "Gauge",
    "Histogram",
    "HotSpot",
    "ManifestDiff",
    "MetricsRegistry",
    "RunAlignment",
    "RunManifest",
    "SLOMonitor",
    "SLOReport",
    "SLOSpec",
    "SLOStatus",
    "SimProfiler",
    "Span",
    "SpanTracer",
    "StreamDelta",
    "align_runs",
    "ancestors",
    "append_dashboard",
    "callback_identity",
    "canonical_json",
    "child_map",
    "config_digest",
    "derive_trace_id",
    "descendants_of",
    "diff_manifests",
    "discover_recording",
    "export_run",
    "find_divergence",
    "flatten_manifest",
    "load_manifest",
    "load_metrics_jsonl",
    "load_recording",
    "load_slo_report",
    "load_spans_jsonl",
    "parse_folded",
    "render_alignment",
    "render_dashboard",
    "render_hotspots",
    "render_report",
    "span_cost_rows",
    "span_index",
    "write_manifest",
    "write_metrics_jsonl",
    "write_profile",
    "write_slo_report",
    "write_spans_jsonl",
]
