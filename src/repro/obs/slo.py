"""Declarative SLOs evaluated as rolling burn-rate windows.

An :class:`SLOSpec` declares an objective over metrics that already live
in a :class:`~repro.obs.metrics.MetricsRegistry`; an :class:`SLOMonitor`
samples the registry at (sim-time) checkpoints and evaluates each spec
over a trailing window by differencing cumulative state between the
window's endpoints — no second event stream, no wall clock.

Three spec kinds:

``latency_quantile``
    "``objective`` of windowed observations of histogram ``metric``
    complete within ``threshold``."  The error fraction is computed from
    bucket-count deltas: observations landing above the largest bucket
    bound ≤ ``threshold`` count against the budget (bucket-resolution
    conservative).
``availability``
    "``good``/``total`` counter ratio in the window stays ≥
    ``objective``."
``error_budget``
    "``bad``/``total`` counter ratio in the window stays ≤
    ``1 - objective``."

For every spec the monitor reports the windowed SLI and the **burn
rate** — the windowed error fraction divided by the error budget
``1 - objective``.  Burn < 1 means the budget outlives the window;
burn ≥ 1 means it is being consumed faster than allotted.  Evaluation is
*observe-only*: nothing in the run changes behaviour based on a report,
so enabling SLO monitoring can never perturb determinism.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.manifest import canonical_json
from repro.obs.metrics import MetricsRegistry

PathLike = Union[str, Path]

SLO_KINDS = ("latency_quantile", "availability", "error_budget")

#: Burn-rate thresholds for the observe-only status ladder.
BURN_WARN = 1.0
BURN_CRITICAL = 2.0


@dataclass(frozen=True)
class SLOSpec:
    """One declarative service-level objective.

    ``objective`` is the target success fraction in (0, 1); the error
    budget is ``1 - objective``.  ``window`` is the rolling evaluation
    window in sim-time units.  Which metric fields are required depends
    on ``kind`` (see the module docstring).
    """

    name: str
    kind: str
    objective: float
    window: float = 50.0
    metric: str = ""
    threshold: float = 0.0
    good: str = ""
    bad: str = ""
    total: str = ""

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(f"SLO kind must be one of {SLO_KINDS}, got {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be strictly between 0 and 1")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.kind == "latency_quantile" and not self.metric:
            raise ValueError("latency_quantile SLOs need a histogram `metric`")
        if self.kind == "availability" and not (self.good and self.total):
            raise ValueError("availability SLOs need `good` and `total` counters")
        if self.kind == "error_budget" and not (self.bad and self.total):
            raise ValueError("error_budget SLOs need `bad` and `total` counters")

    @property
    def budget(self) -> float:
        """The error budget: the tolerated error fraction."""
        return 1.0 - self.objective

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (stable field names)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "window": self.window,
            "metric": self.metric,
            "threshold": self.threshold,
            "good": self.good,
            "bad": self.bad,
            "total": self.total,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SLOSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(payload["name"]),
            kind=str(payload["kind"]),
            objective=float(payload["objective"]),
            window=float(payload.get("window", 50.0)),
            metric=str(payload.get("metric", "")),
            threshold=float(payload.get("threshold", 0.0)),
            good=str(payload.get("good", "")),
            bad=str(payload.get("bad", "")),
            total=str(payload.get("total", "")),
        )


@dataclass(frozen=True)
class SLOStatus:
    """One spec's evaluation over the trailing window."""

    name: str
    kind: str
    window: float
    sli: float
    budget: float
    burn_rate: float
    events: int
    status: str

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by the JSON report artifact."""
        return {
            "name": self.name,
            "kind": self.kind,
            "window": self.window,
            "sli": self.sli,
            "budget": self.budget,
            "burn_rate": self.burn_rate,
            "events": self.events,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SLOStatus":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(payload["name"]),
            kind=str(payload["kind"]),
            window=float(payload["window"]),
            sli=float(payload["sli"]),
            budget=float(payload["budget"]),
            burn_rate=float(payload["burn_rate"]),
            events=int(payload["events"]),
            status=str(payload["status"]),
        )


@dataclass
class SLOReport:
    """The full observe-only report at one evaluation time."""

    evaluated_at: float
    statuses: List[SLOStatus] = field(default_factory=list)

    @property
    def worst_burn_rate(self) -> float:
        """Largest burn rate across specs (0 when no specs)."""
        return max((status.burn_rate for status in self.statuses), default=0.0)

    @property
    def breached(self) -> bool:
        """True when any spec is at or past the critical burn threshold."""
        return any(status.status == "critical" for status in self.statuses)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (statuses in spec order)."""
        return {
            "evaluated_at": self.evaluated_at,
            "statuses": [status.to_dict() for status in self.statuses],
        }

    def to_json(self) -> str:
        """Canonical JSON rendering."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SLOReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            evaluated_at=float(payload["evaluated_at"]),
            statuses=[
                SLOStatus.from_dict(entry) for entry in payload.get("statuses", [])
            ],
        )

    def render(self) -> str:
        """Text table (one line per SLO, deterministic widths)."""
        if not self.statuses:
            return "(no SLOs configured)"
        lines = [
            f"{'slo':<28} {'kind':<16} {'sli':>8} {'budget':>8} "
            f"{'burn':>8} {'events':>7}  status"
        ]
        for status in self.statuses:
            lines.append(
                f"{status.name:<28} {status.kind:<16} {status.sli:>8.4f} "
                f"{status.budget:>8.4f} {status.burn_rate:>8.2f} "
                f"{status.events:>7d}  {status.status}"
            )
        return "\n".join(lines)


def _classify(burn_rate: float) -> str:
    if burn_rate >= BURN_CRITICAL:
        return "critical"
    if burn_rate >= BURN_WARN:
        return "warn"
    return "ok"


@dataclass
class _Sample:
    """Cumulative registry state captured at one sim time."""

    time: float
    counters: Dict[str, float]
    buckets: Dict[str, Tuple[int, ...]]
    bucket_totals: Dict[str, int]


class SLOMonitor:
    """Samples a registry over sim time and evaluates burn rates.

    Call :meth:`sample` at checkpoints (the QoS monitor samples on every
    settlement; a kernel process may sample periodically) and
    :meth:`evaluate` whenever a report is wanted.  Reads never create
    metrics, and the monitor never writes to the registry — attaching it
    cannot change a run's telemetry.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        specs: Sequence[SLOSpec],
        max_samples: int = 512,
    ) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self._registry = registry
        self._specs = list(specs)
        self._max_samples = max_samples
        self._samples: List[_Sample] = []
        self._counter_names = sorted(
            {
                name
                for spec in self._specs
                for name in (spec.good, spec.bad, spec.total)
                if name
            }
        )
        self._histogram_names = sorted(
            {spec.metric for spec in self._specs if spec.metric}
        )

    @property
    def specs(self) -> List[SLOSpec]:
        """The declared SLOs (a copied list)."""
        return list(self._specs)

    @property
    def sample_count(self) -> int:
        """Number of retained samples."""
        return len(self._samples)

    def sample(self, now: float) -> None:
        """Capture the registry's cumulative state at sim time ``now``."""
        counters = {
            name: self._registry.counter_value(name) for name in self._counter_names
        }
        buckets: Dict[str, Tuple[int, ...]] = {}
        bucket_totals: Dict[str, int] = {}
        for name in self._histogram_names:
            histogram = self._registry.histogram_or_none(name)
            if histogram is not None:
                buckets[name] = histogram.bucket_counts()
                bucket_totals[name] = histogram.count
        last_time = self._samples[-1].time if self._samples else None
        if last_time == now:  # agora: ignore[AGR004] sim-time checkpoints are exact
            # Same-instant re-sample: keep the latest cumulative state.
            self._samples.pop()
        self._samples.append(_Sample(now, counters, buckets, bucket_totals))
        if len(self._samples) > self._max_samples:
            self._samples.pop(0)

    # -- evaluation -------------------------------------------------------
    def _window_baseline(self, spec: SLOSpec, now: float) -> Optional[_Sample]:
        """Latest sample at or before the window start.

        ``None`` means the window opens before the first sample: the
        baseline is then the implicit zero state at run start, so all
        recorded activity counts as in-window (expanding-window
        semantics while history is shorter than the window).
        """
        start_time = now - spec.window
        baseline: Optional[_Sample] = None
        for candidate in self._samples:
            if candidate.time <= start_time:
                baseline = candidate
            else:
                break
        return baseline

    def _evaluate_spec(self, spec: SLOSpec, now: float) -> SLOStatus:
        if not self._samples:
            return SLOStatus(
                name=spec.name, kind=spec.kind, window=spec.window,
                sli=1.0, budget=spec.budget, burn_rate=0.0, events=0, status="ok",
            )
        baseline = self._window_baseline(spec, now)
        latest = self._samples[-1]
        if spec.kind == "latency_quantile":
            error_fraction, events = self._latency_errors(spec, baseline, latest)
        else:
            error_fraction, events = self._counter_errors(spec, baseline, latest)
        sli = 1.0 - error_fraction
        burn_rate = (error_fraction / spec.budget) if events else 0.0
        return SLOStatus(
            name=spec.name,
            kind=spec.kind,
            window=spec.window,
            sli=sli,
            budget=spec.budget,
            burn_rate=burn_rate,
            events=events,
            status=_classify(burn_rate),
        )

    def _latency_errors(
        self, spec: SLOSpec, baseline: Optional[_Sample], latest: _Sample
    ) -> Tuple[float, int]:
        histogram = self._registry.histogram_or_none(spec.metric)
        latest_counts = latest.buckets.get(spec.metric)
        if histogram is None or latest_counts is None:
            return 0.0, 0
        base_counts = tuple(0 for _ in latest_counts)
        if baseline is not None and baseline is not latest:
            base_counts = baseline.buckets.get(spec.metric, base_counts)
        deltas = [b - a for a, b in zip(base_counts, latest_counts)]
        total = sum(deltas)
        if total <= 0:
            return 0.0, 0
        good = 0
        for index, bound in enumerate(histogram.buckets):
            if bound <= spec.threshold:
                good += deltas[index]
        errors = total - good
        return errors / total, total

    def _counter_errors(
        self, spec: SLOSpec, baseline: Optional[_Sample], latest: _Sample
    ) -> Tuple[float, int]:
        def delta(name: str) -> float:
            current = latest.counters.get(name, 0.0)
            if baseline is None or baseline is latest:
                return current
            return current - baseline.counters.get(name, 0.0)

        total = delta(spec.total)
        if total <= 0:
            return 0.0, 0
        if spec.kind == "availability":
            errors = total - delta(spec.good)
        else:
            errors = delta(spec.bad)
        errors = min(max(errors, 0.0), total)
        return errors / total, int(total)

    def evaluate(self, now: Optional[float] = None) -> SLOReport:
        """Evaluate every spec over its trailing window ending at ``now``.

        ``now`` defaults to the latest sample time (0.0 when nothing has
        been sampled yet).
        """
        if now is None:
            now = self._samples[-1].time if self._samples else 0.0
        return SLOReport(
            evaluated_at=now,
            statuses=[self._evaluate_spec(spec, now) for spec in self._specs],
        )


def write_slo_report(report: SLOReport, path: PathLike) -> None:
    """Write an SLO report as canonical JSON."""
    Path(path).write_text(report.to_json() + "\n")


def load_slo_report(path: PathLike) -> SLOReport:
    """Read a report written by :func:`write_slo_report`."""
    return SLOReport.from_dict(json.loads(Path(path).read_text()))
