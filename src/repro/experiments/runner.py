"""Experiment result collection.

Each benchmark builds an :class:`ExperimentResult`, adds rows, and prints
the table the experiment index in DESIGN.md promises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

from repro.experiments.tables import render_table
from repro.obs.dashboard import render_dashboard


@dataclass
class ExperimentResult:
    """Accumulates one experiment's table."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        """Append one row (must match the header width)."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, expected {len(self.headers)}"
            )
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        """Attach a free-text note rendered under the table."""
        self.notes.append(note)

    def render(self) -> str:
        """Render the table (plus notes) as fixed-width text."""
        parts = [render_table(self.headers, self.rows,
                              title=f"{self.experiment_id}: {self.title}")]
        for note in self.notes:
            parts.append(f"  note: {note}")
        return "\n".join(parts)

    def print(self) -> None:  # noqa: A003 - deliberate, mirrors CLI verbs
        """Print the rendered table to stdout."""
        print()
        print(self.render())

    def to_markdown(self) -> str:
        """Render the table as a GitHub-flavoured markdown section."""
        header_line = "| " + " | ".join(self.headers) + " |"
        separator = "|" + "|".join("---" for __ in self.headers) + "|"
        lines = [f"### {self.experiment_id}: {self.title}", "", header_line, separator]
        from repro.experiments.tables import format_cell

        for row in self.rows:
            lines.append("| " + " | ".join(format_cell(c) for c in row) + " |")
        for note in self.notes:
            lines.append(f"\n*{note}*")
        return "\n".join(lines)


def render_run_dashboard(run: Any, title: str = "Run dashboard") -> str:
    """Render the observability dashboard of a finished run.

    ``run`` is anything with the :class:`repro.core.agora.Agora` surface
    (``sim.metrics``, optional ``tracer``, ``run_manifest()``) — taken by
    duck type so the experiment harness stays below the composition root
    in the layer DAG.
    """
    tracer = getattr(run, "tracer", None)
    spans = tracer.spans() if tracer is not None else None
    manifest = run.run_manifest() if hasattr(run, "run_manifest") else None
    return render_dashboard(
        run.sim.metrics, spans=spans, manifest=manifest, title=title
    )
