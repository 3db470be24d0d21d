"""Agora configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.resilience.policy import ResilienceConfig

TOPOLOGY_KINDS = ("random", "small-world", "scale-free", "star")
PLANNER_KINDS = ("trading", "exhaustive", "greedy", "local")


@dataclass
class AgoraConfig:
    """Tunable knobs for building an agora.

    Defaults give a laptop-scale agora: 10 sources over the five Iris
    domains, a random overlay, churn off.
    """

    seed: int = 7
    n_sources: int = 10
    items_per_source: int = 60
    n_topics: int = 10
    feature_dimensions: int = 32
    vocabulary_size: int = 2000
    topology: str = "random"
    topology_edge_probability: float = 0.3
    enable_churn: bool = False
    mean_uptime: float = 500.0
    mean_downtime: float = 20.0
    load_capacity: float = 50.0
    calibration_pairs: int = 600
    lifter_sample_size: int = 120
    feature_set: str = "content_metadata"
    planner: str = "trading"
    relevance_threshold: float = 0.75
    start_update_streams: bool = False
    #: attach a causal span tracer to the kernel and record per-query
    #: span trees (off by default: tracing costs a few percent and most
    #: runs only need the metrics registry, which is always on)
    enable_tracing: bool = False
    #: hook a sim-time profiler into kernel dispatch, attributing
    #: virtual-time deltas and event counts to span stacks; pairs with
    #: ``enable_tracing`` for named stacks (without it every sample
    #: lands in the unattributed bucket)
    enable_profiling: bool = False
    #: sample and evaluate the stock observe-only QoS SLOs
    #: (:func:`repro.qos.monitor.default_qos_slos`) at each settlement
    enable_slos: bool = False
    #: hook a flight recorder into kernel dispatch: one byte-stable log
    #: record per event (seq, time, kind, callback, span, RNG draws)
    #: with periodic digest checkpoints, so two runs can be aligned by
    #: ``python -m repro.obs divergence`` down to the first forked event
    enable_flight_recorder: bool = False
    #: default consumer-side resilience policies (off unless enabled);
    #: individual consumers may override with their own config
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    overpromise_range: Tuple[float, float] = (0.0, 0.3)
    coverage_range: Tuple[float, float] = (0.6, 1.0)
    error_rate_range: Tuple[float, float] = (0.0, 0.15)
    freshness_lag_range: Tuple[float, float] = (0.0, 20.0)

    def __post_init__(self) -> None:
        if self.n_sources < 1:
            raise ValueError("n_sources must be >= 1")
        if self.items_per_source < 0:
            raise ValueError("items_per_source must be non-negative")
        if self.topology not in TOPOLOGY_KINDS:
            raise ValueError(f"topology must be one of {TOPOLOGY_KINDS}")
        if self.planner not in PLANNER_KINDS:
            raise ValueError(f"planner must be one of {PLANNER_KINDS}")
        for name in ("overpromise_range", "coverage_range",
                     "error_rate_range", "freshness_lag_range"):
            low, high = getattr(self, name)
            if low > high:
                raise ValueError(f"{name}: low must be <= high")
