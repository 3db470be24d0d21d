"""Markdown dashboard renderer for one run's observability state.

Turns a metric snapshot (and optionally the span forest and manifest)
into the GitHub-flavoured markdown section the experiment harness
appends to benchmark reports: a provenance header, a counter table, a
distribution table with quantiles, and a per-name span cost table.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.divergence import DivergenceReport, render_report
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOReport
from repro.obs.spans import Span


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4f}"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return lines


def span_cost_rows(spans: Sequence[Span]) -> List[Tuple[str, int, float, float]]:
    """Aggregate spans by name → (name, count, total time, mean time)."""
    totals: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        totals[span.name].append(span.duration)
    rows: List[Tuple[str, int, float, float]] = []
    for name in sorted(totals):
        durations = totals[name]
        total = sum(durations)
        rows.append((name, len(durations), total, total / len(durations)))
    return rows


def render_dashboard(
    registry: MetricsRegistry,
    spans: Optional[Sequence[Span]] = None,
    manifest: Optional[RunManifest] = None,
    title: str = "Run dashboard",
    slo_report: Optional[SLOReport] = None,
    divergence: Optional[DivergenceReport] = None,
) -> str:
    """Render the full markdown dashboard for one run."""
    lines: List[str] = [f"## {title}", ""]
    if manifest is not None:
        lines.extend(
            [
                f"- seed: `{manifest.seed}`",
                f"- config digest: `{manifest.config_digest[:16]}`",
                f"- events processed: {manifest.event_count}",
                f"- spans recorded: {manifest.span_count}",
                f"- manifest digest: `{manifest.digest()[:16]}`",
                "",
            ]
        )
    if slo_report is not None and slo_report.statuses:
        lines.extend(["### SLO burn rates", ""])
        lines.extend(
            _table(
                ["slo", "kind", "sli", "budget", "burn", "events", "status"],
                [
                    [
                        status.name,
                        status.kind,
                        f"{status.sli:.4f}",
                        f"{status.budget:.4f}",
                        f"{status.burn_rate:.2f}",
                        str(status.events),
                        status.status,
                    ]
                    for status in slo_report.statuses
                ],
            )
        )
        lines.append("")
    if divergence is not None:
        lines.extend(["### Divergence", "", "```"])
        lines.append(render_report(divergence))
        lines.extend(["```", ""])
    counters = registry.counters()
    if counters:
        lines.extend(["### Counters", ""])
        lines.extend(
            _table(
                ["counter", "value"],
                [[name, _format(value)] for name, value in counters.items()],
            )
        )
        lines.append("")
    gauges = registry.gauges()
    if gauges:
        lines.extend(["### Gauges", ""])
        lines.extend(
            _table(
                ["gauge", "value"],
                [[name, _format(value)] for name, value in gauges.items()],
            )
        )
        lines.append("")
    histograms = registry.histograms()
    if histograms:
        lines.extend(["### Distributions", ""])
        rows = []
        for name, histogram in histograms.items():
            summary = histogram.summary()
            rows.append(
                [
                    name,
                    _format(summary["count"]),
                    _format(summary["mean"]),
                    _format(summary["p50"]),
                    _format(summary["p90"]),
                    _format(summary["p99"]),
                    _format(summary["max"]),
                ]
            )
        lines.extend(
            _table(["distribution", "count", "mean", "p50", "p90", "p99", "max"], rows)
        )
        lines.append("")
    if spans:
        lines.extend(["### Span costs", ""])
        lines.extend(
            _table(
                ["span", "count", "total time", "mean time"],
                [
                    [name, str(count), _format(total), _format(mean)]
                    for name, count, total, mean in span_cost_rows(spans)
                ],
            )
        )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def append_dashboard(
    path: Union[str, Path],
    registry: MetricsRegistry,
    spans: Optional[Sequence[Span]] = None,
    manifest: Optional[RunManifest] = None,
    title: str = "Run dashboard",
    slo_report: Optional[SLOReport] = None,
    divergence: Optional[DivergenceReport] = None,
) -> None:
    """Append the rendered dashboard to a markdown report file."""
    with open(path, "a") as handle:
        handle.write(
            "\n"
            + render_dashboard(registry, spans, manifest, title, slo_report, divergence)
        )
