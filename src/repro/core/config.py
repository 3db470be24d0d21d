"""Agora configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.resilience.policy import ResilienceConfig


@dataclass
class AgoraConfig:
    """Tunable knobs for building an agora.

    Defaults give a laptop-scale agora: 10 sources over the five Iris
    domains, churn off.  The knobs no experiment varies are constants of
    :mod:`repro.core.agora`.
    """

    seed: int = 7
    n_sources: int = 10
    items_per_source: int = 60
    enable_churn: bool = False
    mean_uptime: float = 500.0
    mean_downtime: float = 20.0
    calibration_pairs: int = 600
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
    error_rate_range: Tuple[float, float] = (0.0, 0.15)

    def __post_init__(self) -> None:
        if self.n_sources < 1:
            raise ValueError("n_sources must be >= 1")
        if self.items_per_source < 0:
            raise ValueError("items_per_source must be non-negative")
        if self.calibration_pairs < 0:
            raise ValueError("calibration_pairs must be non-negative")
        for name in ("overpromise_range", "error_rate_range"):
            low, high = getattr(self, name)
            if low > high:
                raise ValueError(f"{name}: low must be <= high")
