"""Risk attitudes: choice under uncertainty.

Section 2 cites Machina's "Choice under uncertainty": "different attitudes
towards risk make people behave very differently under uncertainty."  We
model attitudes with constant absolute risk aversion (CARA) utilities over
normalised outcomes in [0, 1]:

    u(x) = (1 - exp(-a·x)) / (1 - exp(-a))   for a ≠ 0
    u(x) = x                                  for a = 0

``a > 0`` is risk-averse (concave), ``a < 0`` risk-seeking (convex).  The
certainty equivalent inverts u, so optimizers can compare uncertain plans
by the certain value a given user would trade them for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class RiskProfile:
    """A user's attitude towards uncertain outcomes.

    Attributes
    ----------
    aversion:
        CARA coefficient ``a``; positive = averse, zero = neutral,
        negative = seeking.  |a| beyond ~20 is numerically pointless.
    name:
        Optional label for reports.
    """

    aversion: float = 0.0
    name: str = "neutral"

    def __post_init__(self) -> None:
        if abs(self.aversion) > 50:
            raise ValueError("aversion coefficient out of sensible range")

    # ------------------------------------------------------------------
    def utility(self, value: float) -> float:
        """CARA utility of a sure outcome ``value`` in [0, 1]."""
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise ValueError("value must be in [0, 1]")
        value = float(np.clip(value, 0.0, 1.0))
        a = self.aversion
        if abs(a) < 1e-9:
            return value
        return float((1.0 - np.exp(-a * value)) / (1.0 - np.exp(-a)))

    def inverse_utility(self, utility: float) -> float:
        """Value whose utility equals ``utility`` (the inverse of u)."""
        if not -1e-9 <= utility <= 1.0 + 1e-9:
            raise ValueError("utility must be in [0, 1]")
        utility = float(np.clip(utility, 0.0, 1.0))
        a = self.aversion
        if abs(a) < 1e-9:
            return utility
        inner = 1.0 - utility * (1.0 - np.exp(-a))
        return float(-np.log(inner) / a)

    def expected_utility(
        self, outcomes: Sequence[float], probabilities: Sequence[float]
    ) -> float:
        """Expected utility of a lottery over outcomes in [0, 1]."""
        outcomes = np.asarray(outcomes, dtype=float)
        probabilities = np.asarray(probabilities, dtype=float)
        if outcomes.shape != probabilities.shape:
            raise ValueError("outcomes and probabilities must align")
        if outcomes.size == 0:
            raise ValueError("lottery must have at least one outcome")
        if np.any(probabilities < 0) or abs(probabilities.sum() - 1.0) > 1e-6:
            raise ValueError("probabilities must be non-negative and sum to 1")
        return float(
            sum(p * self.utility(x) for x, p in zip(outcomes, probabilities))
        )

    def certainty_equivalent(
        self, outcomes: Sequence[float], probabilities: Sequence[float]
    ) -> float:
        """The sure value this user finds equivalent to the lottery."""
        return self.inverse_utility(self.expected_utility(outcomes, probabilities))


def risk_averse(aversion: float = 4.0) -> RiskProfile:
    """A risk-averse profile (prefers sure things)."""
    if aversion <= 0:
        raise ValueError("averse profile needs positive aversion")
    return RiskProfile(aversion=aversion, name="averse")


def risk_neutral() -> RiskProfile:
    """A risk-neutral profile (maximises expected value)."""
    return RiskProfile(aversion=0.0, name="neutral")


def risk_seeking(appetite: float = 4.0) -> RiskProfile:
    """A risk-seeking profile (enjoys gambles)."""
    if appetite <= 0:
        raise ValueError("seeking profile needs positive appetite")
    return RiskProfile(aversion=-appetite, name="seeking")
