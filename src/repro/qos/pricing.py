"""SLA pricing policies.

The premium of an SLA should reflect "the risk/uncertainty of the requested
service" (§3, citing Gravelle & Rees).  We provide two policies so the
T3 experiment can compare them:

- :class:`FlatPricing` — a fixed premium regardless of risk (naive baseline).
- :class:`RiskPricedPremium` — premium = expected compensation payout times
  a risk loading, the actuarially fair price plus margin.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.qos.vector import QoSRequirement


@dataclass(frozen=True)
class Quote:
    """A priced offer for serving one job under an SLA."""

    base_price: float
    premium: float
    compensation: float

    @property
    def total(self) -> float:
        """Base price plus premium."""
        return self.base_price + self.premium

    def __post_init__(self) -> None:
        if self.base_price < 0 or self.premium < 0 or self.compensation < 0:
            raise ValueError("quote components must be non-negative")


class PricingPolicy(ABC):
    """Maps (requirement, cost estimate, breach probability) to a quote."""

    @abstractmethod
    def quote(
        self,
        requirement: QoSRequirement,
        base_cost: float,
        breach_probability: float,
    ) -> Quote:
        """Return the quote for one job."""

    @staticmethod
    def _check(base_cost: float, breach_probability: float) -> None:
        if base_cost < 0:
            raise ValueError("base_cost must be non-negative")
        if not 0.0 <= breach_probability <= 1.0:
            raise ValueError("breach_probability must be in [0, 1]")


@dataclass
class FlatPricing(PricingPolicy):
    """Charge cost × margin plus a constant premium, ignore risk."""

    margin: float = 1.2
    flat_premium: float = 0.5
    compensation_multiple: float = 2.0

    def quote(
        self,
        requirement: QoSRequirement,
        base_cost: float,
        breach_probability: float,
    ) -> Quote:
        """Price one job under this policy."""
        self._check(base_cost, breach_probability)
        base_price = base_cost * self.margin
        return Quote(
            base_price=base_price,
            premium=self.flat_premium,
            compensation=self.compensation_multiple * base_price,
        )


@dataclass
class RiskPricedPremium(PricingPolicy):
    """Actuarially fair premium plus a risk loading.

    premium = breach_probability × compensation × (1 + loading)

    A provider using this policy breaks even in expectation on the
    guarantee itself and earns ``loading`` as its risk margin — the
    textbook treatment of insurance premiums the paper cites.
    """

    margin: float = 1.2
    loading: float = 0.25
    compensation_multiple: float = 2.0

    def quote(
        self,
        requirement: QoSRequirement,
        base_cost: float,
        breach_probability: float,
    ) -> Quote:
        """Price one job under this policy."""
        self._check(base_cost, breach_probability)
        base_price = base_cost * self.margin
        compensation = self.compensation_multiple * base_price
        premium = breach_probability * compensation * (1.0 + self.loading)
        return Quote(base_price=base_price, premium=premium, compensation=compensation)
