"""Metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` is the single store for everything a run
counts or measures.  The flat :class:`~repro.sim.trace.TraceRecorder`
remains the convenience facade components already use — it is now backed
by a registry — while new code can hold typed metric handles directly.

Histograms use *fixed* bucket bounds (no adaptive resizing), so two
same-seed runs produce identical snapshots and quantile estimates are a
pure function of the recorded counts.

Read-side purity contract: every ``*_value``/snapshot accessor is
non-mutating — looking up a metric that was never written does **not**
create it (the defaultdict bug class this registry replaces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

#: Default histogram bounds: a geometric ladder covering sub-millisecond
#: jitter to hundreds of virtual-time units (upper bound is +inf).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
)


@dataclass
class Counter:
    """A monotonically-written cumulative value."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (defaults to 1)."""
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = value

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta``."""
        self.value += delta


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    Quantiles are estimated by linear interpolation inside the bucket
    containing the target rank, clamped to the observed min/max — cheap,
    deterministic, and accurate to bucket width.
    """

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be non-empty and ascending")
        self.name = name
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        """Fold one observation into the histogram."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[index] += 1
                return
        self._counts[-1] += 1

    @property
    def mean(self) -> float:
        """Mean of the observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def bucket_counts(self) -> Tuple[int, ...]:
        """Per-bucket counts (last entry is the overflow bucket)."""
        return tuple(self._counts)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]).

        Edge-case contract (pinned by regression tests):

        - empty histogram → 0.0 (a defined sentinel, never ±inf);
        - ``q == 0`` → the observed minimum, ``q == 1`` → the maximum;
        - a single observation → that observation, for every ``q``;
        - all observations in the overflow bucket → interpolation inside
          ``[minimum, maximum]`` (never the finite bucket ceiling).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        if q == 0.0 or self.count == 1:
            return self.minimum
        if q == 1.0:
            return self.maximum
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.buckets[index - 1] if index > 0 else self.minimum
                upper = (
                    self.buckets[index] if index < len(self.buckets) else self.maximum
                )
                lower = max(lower, self.minimum)
                upper = min(upper, self.maximum)
                if upper <= lower:
                    return lower
                fraction = (target - cumulative) / bucket_count
                return lower + fraction * (upper - lower)
            cumulative += bucket_count
        return self.maximum

    def summary(self) -> Dict[str, float]:
        """Compact summary: count, mean, min, max, p50/p90/p99."""
        if self.count == 0:
            return {"count": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms for one run.

    Writer accessors (:meth:`counter`, :meth:`gauge`, :meth:`histogram`)
    create on first use; a name may only ever hold one metric kind.
    Reader accessors never create.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _claim(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} is already registered as a {other_kind}"
                )

    # -- writer handles (create on first use) ----------------------------
    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created if needed)."""
        existing = self._counters.get(name)
        if existing is None:
            self._claim(name, "counter")
            existing = self._counters[name] = Counter(name)
        return existing

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created if needed)."""
        existing = self._gauges.get(name)
        if existing is None:
            self._claim(name, "gauge")
            existing = self._gauges[name] = Gauge(name)
        return existing

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram called ``name`` (created if needed).

        ``buckets`` is honoured only at creation time; later callers get
        the existing instance unchanged.
        """
        existing = self._histograms.get(name)
        if existing is None:
            self._claim(name, "histogram")
            existing = self._histograms[name] = Histogram(
                name, buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return existing

    # -- readers (never create) ------------------------------------------
    def counter_value(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never written)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0.0

    def gauge_value(self, name: str) -> float:
        """Current value of gauge ``name`` (0 if never written)."""
        gauge = self._gauges.get(name)
        return gauge.value if gauge is not None else 0.0

    def histogram_or_none(self, name: str) -> Optional[Histogram]:
        """The live histogram called ``name``, or ``None``."""
        return self._histograms.get(name)

    def counters(self) -> Dict[str, float]:
        """Snapshot of all counter values, sorted by name."""
        return {name: self._counters[name].value for name in sorted(self._counters)}

    def gauges(self) -> Dict[str, float]:
        """Snapshot of all gauge values, sorted by name."""
        return {name: self._gauges[name].value for name in sorted(self._gauges)}

    def histograms(self) -> Dict[str, Histogram]:
        """The live histograms, sorted by name (a copied dict)."""
        return {name: self._histograms[name] for name in sorted(self._histograms)}

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic full snapshot (sorted names, summarised histograms)."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {
                name: histogram.summary()
                for name, histogram in self.histograms().items()
            },
        }
