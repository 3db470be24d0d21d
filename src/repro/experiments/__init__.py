"""Experiment harness: metrics, tables, result collection.

Public API:

- :func:`summarize`, :class:`Summary`, :func:`win_rate`, :func:`ndcg`.
- :func:`render_table`.
- :class:`ExperimentResult`, :func:`render_run_dashboard`.
"""

from repro.experiments.metrics import (
    Summary,
    ndcg,
    summarize,
    win_rate,
)
from repro.experiments.runner import (
    ExperimentResult,
    render_run_dashboard,
)
from repro.experiments.tables import render_table

__all__ = [
    "ExperimentResult",
    "Summary",
    "ndcg",
    "render_run_dashboard",
    "render_table",
    "summarize",
    "win_rate",
]
