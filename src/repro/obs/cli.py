"""``python -m repro.obs`` — inspect and compare exported run artifacts.

Subcommands
-----------
``summary <manifest.json>``
    Print a run's provenance header and its metric snapshot.
``spans <spans.jsonl>``
    Render the exported span forest as an indented causal tree.
``diff <left-manifest.json> <right-manifest.json>``
    Compare two run manifests; exit 0 on zero drift, 1 when any field or
    metric drifted (the machine-checkable regression gate).
``flame <profile.folded> [--top N]``
    Render a folded-stack profile as a ranked hotspot table.
``slo <slo.json> [--strict]``
    Render an exported SLO burn-rate report; with ``--strict``, exit 1
    when any SLO is critical (the default stays observe-only).
``divergence <left> <right> [--context K] [--json]``
    Align two flight recordings (or two run directories holding one
    recording each) and name the first event at which they stop
    being bitwise-identical; exit 0 identical, 1 diverged.

Exit codes: 0 success (and clean diff / non-breached strict slo /
identical recordings), 1 drift, strict-mode breach or divergence,
2 usage errors and unreadable/invalid artifact files (reported on
stderr, never as a traceback).

Every subcommand loads its artifacts through one shared
:func:`_load_artifact` path, so a missing, unreadable or malformed file
produces the same ``error: …`` + exit 2 behavior everywhere.

The CLI works on *files only* — recording happens wherever a run happens
(see ``examples/observability_demo.py``), keeping ``repro.obs`` at the
bottom of the layer DAG.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.divergence import align_runs, render_alignment
from repro.obs.export import load_manifest, load_spans_jsonl
from repro.obs.manifest import RunManifest, canonical_json, diff_manifests
from repro.obs.profile import parse_folded
from repro.obs.slo import SLOReport, load_slo_report
from repro.obs.spans import Span, child_map


class ArtifactError(Exception):
    """An artifact file could not be read or parsed (CLI exit 2)."""


def _load_artifact(loader: Callable[..., Any], *paths: str, **kwargs: Any) -> Any:
    """Run an artifact ``loader`` with uniform bad-file translation.

    Every subcommand funnels its file access through here, so a missing
    file, a permissions problem or malformed content produces the same
    ``error: <reason>`` + exit-2 behavior regardless of which artifact
    kind was being read.  Valid JSON of the wrong shape (a list or a
    string where an object belongs) surfaces from the loaders as a
    ``TypeError`` or ``AttributeError`` and is reported the same way.
    """
    try:
        return loader(*paths, **kwargs)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ArtifactError(str(exc)) from exc
    except (TypeError, AttributeError) as exc:
        raise ArtifactError(
            f"{', '.join(paths)}: malformed artifact (wrong JSON shape: {exc})"
        ) from exc


def _render_attributes(span: Span) -> str:
    if not span.attributes:
        return ""
    parts = [f"{key}={span.attributes[key]!r}" for key in sorted(span.attributes)]
    return " {" + ", ".join(parts) + "}"


def render_span_tree(spans: Sequence[Span], limit: Optional[int] = None) -> str:
    """Indented text rendering of the span forest (depth-first, id order)."""
    children = child_map(spans)
    lines: List[str] = []

    def visit(span: Span, depth: int) -> None:
        if limit is not None and len(lines) >= limit:
            return
        marker = "!" if span.status != "ok" else ""
        end = f"{span.end:.4f}" if span.end is not None else "…"
        lines.append(
            f"{'  ' * depth}#{span.span_id} {span.name}{marker} "
            f"[{span.start:.4f}→{end}]{_render_attributes(span)}"
        )
        for child in children.get(span.span_id, []):
            visit(child, depth + 1)

    for root in children.get(None, []):
        visit(root, 0)
    total = len(spans)
    if limit is not None and total > len(lines):
        lines.append(f"… ({total - len(lines)} more spans)")
    return "\n".join(lines)


def _render_summary(manifest: RunManifest, top: int) -> str:
    lines = [
        f"seed:           {manifest.seed}",
        f"config digest:  {manifest.config_digest}",
        f"manifest digest: {manifest.digest()}",
        f"events:         {manifest.event_count}",
        f"spans:          {manifest.span_count}",
    ]
    metrics: Dict[str, Any] = manifest.metrics
    counters: Dict[str, float] = dict(metrics.get("counters", {}))
    if counters:
        lines.append(f"counters ({len(counters)} total, top {top} by value):")
        ranked = sorted(counters.items(), key=lambda pair: (-pair[1], pair[0]))
        for name, value in ranked[:top]:
            lines.append(f"  {name} = {value:g}")
    histograms: Dict[str, Any] = dict(metrics.get("histograms", {}))
    if histograms:
        lines.append(f"distributions ({len(histograms)}):")
        for name in sorted(histograms)[:top]:
            summary = histograms[name]
            lines.append(
                f"  {name}: n={summary.get('count', 0):g} "
                f"mean={summary.get('mean', 0.0):.4f} "
                f"p99={summary.get('p99', 0.0):.4f}"
            )
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect and compare exported observability artifacts.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    summary = subparsers.add_parser("summary", help="summarise one run manifest")
    summary.add_argument("manifest", help="path to manifest.json")
    summary.add_argument(
        "--top", type=int, default=10, help="how many metrics to show (default 10)"
    )

    spans = subparsers.add_parser("spans", help="render an exported span tree")
    spans.add_argument("spans", help="path to spans.jsonl")
    spans.add_argument(
        "--limit", type=int, default=None, help="cap the number of printed spans"
    )

    diff = subparsers.add_parser(
        "diff", help="compare two run manifests (exit 1 on drift)"
    )
    diff.add_argument("left", help="path to the first manifest.json")
    diff.add_argument("right", help="path to the second manifest.json")

    flame = subparsers.add_parser(
        "flame", help="render a folded-stack profile as a hotspot table"
    )
    flame.add_argument("folded", help="path to profile.folded")
    flame.add_argument(
        "--top", type=int, default=10, help="how many stacks to show (default 10)"
    )

    slo = subparsers.add_parser("slo", help="render an exported SLO burn-rate report")
    slo.add_argument("report", help="path to slo.json")
    slo.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any SLO is at critical burn (default: observe-only)",
    )

    divergence = subparsers.add_parser(
        "divergence",
        help="find the first event at which two flight recordings fork "
        "(exit 1 when diverged)",
    )
    divergence.add_argument(
        "left", help="left recording (flight dir or run dir with flight/ inside)"
    )
    divergence.add_argument("right", help="right recording (same layouts)")
    divergence.add_argument(
        "--context",
        type=int,
        default=5,
        help="matching events to echo before the fork (default 5)",
    )
    divergence.add_argument(
        "--json",
        action="store_true",
        help="emit the alignment as canonical JSON instead of text",
    )
    return parser


def render_flame_table(entries: Sequence[Any], top: int) -> str:
    """Ranked text table of parsed folded-stack ``(stack, value)`` pairs."""
    if not entries:
        return "(empty profile)"
    total = sum(value for _, value in entries)
    ranked = sorted(entries, key=lambda entry: (-entry[1], entry[0]))[:top]
    lines = [f"{'value':>12}  {'share':>6}  stack"]
    for stack, value in ranked:
        share = value / total if total > 0 else 0.0
        lines.append(f"{value:>12d}  {share:>6.1%}  {stack}")
    return "\n".join(lines)


def _render_slo(report: SLOReport, strict: bool) -> int:
    print(f"evaluated at: {report.evaluated_at:g}")
    print(report.render())
    if strict and report.breached:
        print("strict mode: at least one SLO is at critical burn", file=sys.stderr)
        return 1
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "summary":
        manifest = _load_artifact(load_manifest, args.manifest)
        print(_render_summary(manifest, top=args.top))
        return 0
    if args.command == "spans":
        spans = _load_artifact(load_spans_jsonl, args.spans)
        print(render_span_tree(spans, limit=args.limit))
        return 0
    if args.command == "diff":
        left = _load_artifact(load_manifest, args.left)
        right = _load_artifact(load_manifest, args.right)
        report = diff_manifests(left, right)
        print(report.render())
        if not report.clean and left.flight and right.flight:
            print(
                "flight recordings available: run "
                "`python -m repro.obs divergence <left-run> <right-run>` "
                "to locate the first divergent event"
            )
        return 0 if report.clean else 1
    if args.command == "flame":
        entries = _load_artifact(
            lambda path: parse_folded(Path(path).read_text()), args.folded
        )
        print(render_flame_table(entries, top=args.top))
        return 0
    if args.command == "slo":
        report = _load_artifact(load_slo_report, args.report)
        return _render_slo(report, strict=args.strict)
    if args.command == "divergence":
        alignment = _load_artifact(
            align_runs, args.left, args.right, context=args.context
        )
        if args.json:
            print(canonical_json(alignment.to_dict()))
        else:
            print(render_alignment(alignment))
        return 0 if alignment.identical else 1
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Usage errors (unknown subcommand, bad flags) and unreadable or
    malformed artifact files exit 2 with a message on stderr — never a
    traceback.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits itself; surface as a code
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _dispatch(args)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
