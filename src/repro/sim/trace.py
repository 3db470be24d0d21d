"""Trace recording: counters and observations.

The :class:`TraceRecorder` is the lightweight facade components write
through.  It is a *view* over a :class:`repro.obs.metrics.MetricsRegistry`:
``count()`` lands in a registry counter and ``observe()`` in a registry
histogram, so everything recorded here also shows up in metric
snapshots, run manifests and dashboards.

Read-side purity: ``counter`` and ``counters`` are non-mutating — looking
up a name that was never written does not create an entry, so snapshots
contain only metrics that were actually observed.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry


class TraceRecorder:
    """Collects counters and observations for one simulation run.

    Parameters
    ----------
    metrics:
        Backing registry; a private one is created when omitted.  Pass a
        shared registry to fold several recorders into one snapshot.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- counters -------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.metrics.counter(name).inc(amount)

    def counter(self, name: str) -> float:
        """Return the current value of counter ``name`` (0 if untouched)."""
        return self.metrics.counter_value(name)

    def counters(self) -> Dict[str, float]:
        """Return a snapshot of all counters."""
        return self.metrics.counters()

    # -- timers ----------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record an observation for timer/metric ``name``."""
        self.metrics.histogram(name).observe(value)
