"""Command-line entry point: ``python -m repro.analysis [paths...]``.

Exits 0 when every analysed file is clean and 1 otherwise, so the check
slots directly into CI next to ruff and mypy.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.analysis.engine import AnalysisEngine
from repro.analysis.reporting import render_json, render_text
from repro.analysis.rules import DEFAULT_RULES, RULE_INDEX, Rule


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Determinism & simulation-safety linter for the agora library "
            "(rules AGR001-AGR008)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyse (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="AGR001,AGR002",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--show-suppressions",
        action="store_true",
        help="list every inline suppression (text format only)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _select_rules(spec: Optional[str]) -> List[Rule]:
    if spec is None:
        return list(DEFAULT_RULES)
    selected: List[Rule] = []
    for rule_id in (part.strip() for part in spec.split(",")):
        if not rule_id:
            continue
        if rule_id not in RULE_INDEX:
            raise SystemExit(
                f"unknown rule id {rule_id!r}; known: "
                + ", ".join(sorted(RULE_INDEX))
            )
        selected.append(RULE_INDEX[rule_id])
    return selected


def _rule_table() -> str:
    lines: List[str] = []
    for rule in DEFAULT_RULES:
        lines.append(f"{rule.rule_id}  {rule.title}")
        lines.append(f"        {rule.rationale}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the linter; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(_rule_table())
        return 0
    engine = AnalysisEngine(rules=_select_rules(args.rules))
    report = engine.check_paths(args.paths)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report, show_suppressions=args.show_suppressions))
    return 0 if report.ok else 1
