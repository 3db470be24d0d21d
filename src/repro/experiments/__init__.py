"""Experiment harness: metrics, tables, result collection.

Public API:

- :func:`summarize`, :class:`Summary`, :func:`relative_improvement`,
  :func:`win_rate`.
- :func:`render_table`.
- :class:`ExperimentResult`, :class:`ExperimentSuite`.
"""

from repro.experiments.metrics import (
    Summary,
    mann_whitney_p,
    relative_improvement,
    summarize,
    win_rate,
)
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSuite,
    render_run_dashboard,
)
from repro.experiments.tables import render_table

__all__ = [
    "ExperimentResult",
    "ExperimentSuite",
    "Summary",
    "mann_whitney_p",
    "relative_improvement",
    "render_run_dashboard",
    "render_table",
    "summarize",
    "win_rate",
]
