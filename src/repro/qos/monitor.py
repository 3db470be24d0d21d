"""Contract monitoring and settlement bookkeeping.

Tracks every SLA outcome in a run: per-provider breach rates, money flows,
and the compliance signals forwarded to the reputation system.  "If the
vegetables are not as fresh as promised, in time, her trust is reduced" —
the monitor is where delivery quality turns into trust updates.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOMonitor, SLOReport, SLOSpec
from repro.qos.sla import SLAContract, SLAOutcome
from repro.qos.vector import QoSVector

ComplianceListener = Callable[[str, float], None]

NowFn = Callable[[], float]


def default_qos_slos(window: float = 200.0) -> List[SLOSpec]:
    """The stock observe-only SLOs over the ``qos.*``/``net.*`` metrics.

    - ``qos-contract-success``: ≥90% of settled contracts unbreached
      (error-budget burn over ``qos.breaches`` / ``qos.contracts_settled``);
    - ``net-delivery-p95``: 95% of message deliveries within 5 virtual
      time units on ``net.delivery_delay``.
    """
    return [
        SLOSpec(
            name="qos-contract-success",
            kind="error_budget",
            objective=0.9,
            window=window,
            bad="qos.breaches",
            total="qos.contracts_settled",
        ),
        SLOSpec(
            name="net-delivery-p95",
            kind="latency_quantile",
            objective=0.95,
            window=window,
            metric="net.delivery_delay",
            threshold=5.0,
        ),
    ]


@dataclass
class ProviderLedger:
    """Aggregate settlement history for one provider."""

    contracts: int = 0
    breaches: int = 0
    revenue: float = 0.0
    compensation_paid: float = 0.0

    @property
    def breach_rate(self) -> float:
        """Fraction of this provider's contracts that breached."""
        return self.breaches / self.contracts if self.contracts else 0.0


class ContractMonitor:
    """Settles contracts and aggregates outcomes.

    Register compliance listeners (typically
    ``reputation_system.observe``) to propagate delivery quality into
    trust scores.  With a metrics registry attached, every settlement
    additionally lands in ``qos.*`` counters and the ``qos.compliance``
    distribution, so breach rates show up on run dashboards and in
    manifest diffs.

    With an :class:`~repro.obs.slo.SLOMonitor` attached (see
    :meth:`attach_slos`), every settlement additionally samples the SLO
    windows at the current sim time, and :meth:`slo_report` evaluates
    the burn rates — strictly observe-only: no run behaviour depends on
    a report.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        slos: Optional[SLOMonitor] = None,
        now_fn: Optional[NowFn] = None,
    ) -> None:
        self._ledgers: Dict[str, ProviderLedger] = defaultdict(ProviderLedger)
        self._listeners: List[ComplianceListener] = []
        self._metrics = metrics
        self._slos = slos
        self._now_fn = now_fn

    def on_compliance(self, listener: ComplianceListener) -> None:
        """Register ``listener(provider_id, compliance in [0,1])``."""
        self._listeners.append(listener)

    def attach_slos(
        self, slos: SLOMonitor, now_fn: Optional[NowFn] = None
    ) -> None:
        """Attach an observe-only SLO monitor sampled at each settlement."""
        self._slos = slos
        if now_fn is not None:
            self._now_fn = now_fn

    def slo_report(self, now: Optional[float] = None) -> Optional[SLOReport]:
        """Evaluate the attached SLOs (``None`` when none are attached)."""
        if self._slos is None:
            return None
        if now is None and self._now_fn is not None:
            now = self._now_fn()
        return self._slos.evaluate(now)

    # ------------------------------------------------------------------
    def settle(self, contract: SLAContract, delivered: QoSVector) -> SLAOutcome:
        """Settle ``contract`` against ``delivered`` and record the outcome."""
        outcome = contract.settle(delivered)
        self._record(outcome)
        return outcome

    def record_cancellation(self, contract: SLAContract, by_provider: bool) -> SLAOutcome:
        """Cancel ``contract`` and record the outcome."""
        outcome = contract.cancel(by_provider)
        self._record(outcome)
        return outcome

    def _record(self, outcome: SLAOutcome) -> None:
        ledger = self._ledgers[outcome.contract.provider_id]
        ledger.contracts += 1
        if outcome.breached:
            ledger.breaches += 1
        ledger.revenue += outcome.provider_revenue
        ledger.compensation_paid += max(0.0, outcome.compensation_paid)
        if self._metrics is not None:
            self._metrics.counter("qos.contracts_settled").inc()
            if outcome.breached:
                self._metrics.counter("qos.breaches").inc()
            if outcome.delivered is None:
                self._metrics.counter("qos.cancellations").inc()
            self._metrics.counter(
                "qos.compensation_paid"
            ).inc(max(0.0, outcome.compensation_paid))
            self._metrics.histogram("qos.compliance").observe(outcome.compliance)
        if self._slos is not None:
            self._slos.sample(self._now_fn() if self._now_fn is not None else 0.0)
        for listener in self._listeners:
            listener(outcome.contract.provider_id, outcome.compliance)

    # ------------------------------------------------------------------
    def ledger(self, provider_id: str) -> ProviderLedger:
        """The aggregate ledger of ``provider_id``."""
        return self._ledgers[provider_id]
