"""Experiment result collection.

Each benchmark builds an :class:`ExperimentResult`, adds rows, and prints
the table the experiment index in DESIGN.md promises.  Results can also be
appended to a report file or written as CSV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

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

    def append_to(self, path: Path) -> None:
        """Append the markdown rendering to a report file."""
        with open(path, "a") as handle:
            handle.write("\n" + self.to_markdown() + "\n")

    def to_csv(self) -> str:
        """Comma-separated rendering (for downstream plotting)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def write_csv(self, path: Path) -> None:
        """Write the CSV rendering to ``path``."""
        Path(path).write_text(self.to_csv())


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


class ExperimentSuite:
    """A collection of experiment results (used by `benchmarks/run_all`)."""

    def __init__(self) -> None:
        self._results: Dict[str, ExperimentResult] = {}

    def add(self, result: ExperimentResult) -> None:
        """Register one experiment result under its id."""
        self._results[result.experiment_id] = result

    def get(self, experiment_id: str) -> ExperimentResult:
        """Return the result stored under ``experiment_id``."""
        return self._results[experiment_id]

    def results(self) -> List[ExperimentResult]:
        """All results, ordered by experiment id."""
        return [self._results[k] for k in sorted(self._results)]

    def render_all(self) -> str:
        """Render every collected table, separated by blank lines."""
        return "\n\n".join(result.render() for result in self.results())
