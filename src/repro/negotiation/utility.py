"""Negotiation utilities.

Each party values offers with a linear additive utility over normalised
issues.  Buyers and sellers differ in *direction* per issue: the buyer
likes low price and high quality; the seller the opposite (high price,
cheap-to-provide promises).  Utilities are in [0, 1]; each party also has
a reservation utility below which no deal beats walking away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.negotiation.offers import IssueSpace, Offer


class AdditiveUtility:
    """Linear additive utility over an issue space.

    Parameters
    ----------
    space:
        The issue space offers live in.
    weights:
        Non-negative importance per issue; normalised internally.
    ascending:
        Per issue, ``True`` when this party's utility grows with the
        issue's value (e.g. price for the seller), ``False`` when it
        shrinks (price for the buyer).
    """

    def __init__(
        self,
        space: IssueSpace,
        weights: Mapping[str, float],
        ascending: Mapping[str, bool],
    ):
        self.space = space
        if set(weights) != set(space.names):
            raise ValueError("weights must cover exactly the issue space")
        if set(ascending) != set(space.names):
            raise ValueError("ascending must cover exactly the issue space")
        if any(w < 0 for w in weights.values()):
            raise ValueError("weights must be non-negative")
        total = sum(weights.values())
        if total <= 0:
            raise ValueError("at least one weight must be positive")
        self.weights: Dict[str, float] = {k: v / total for k, v in weights.items()}
        self.ascending: Dict[str, bool] = dict(ascending)

    # ------------------------------------------------------------------
    def __call__(self, offer: Mapping[str, float]) -> float:
        """Utility of ``offer`` in [0, 1]."""
        offer = self.space.validate(offer)
        utility = 0.0
        for issue in self.space.issues:
            normalised = issue.normalise(offer[issue.name])
            if not self.ascending[issue.name]:
                normalised = 1.0 - normalised
            utility += self.weights[issue.name] * normalised
        return utility

    def ideal(self) -> Offer:
        """The offer this party likes best (its corner of the space)."""
        return {
            issue.name: issue.high if self.ascending[issue.name] else issue.low
            for issue in self.space.issues
        }

    def worst(self) -> Offer:
        """The offer this party likes least (the opponent-friendly corner)."""
        return {
            issue.name: issue.low if self.ascending[issue.name] else issue.high
            for issue in self.space.issues
        }

    def iso_utility_offer(self, target: float, toward: Optional[Offer] = None) -> Offer:
        """An offer with own utility ≈ ``target``, as close to ``toward`` as
        the segment ideal→toward allows.

        Walks the line from this party's ideal towards ``toward`` (default:
        its worst corner, i.e. the opponent's ideal for opposed
        preferences) and bisects for the mixing weight whose utility equals
        ``target``.  Utility is monotone along that segment, so bisection
        converges.
        """
        if not 0.0 <= target <= 1.0:
            raise ValueError("target must be in [0, 1]")
        ideal = self.ideal()
        toward = dict(toward) if toward is not None else self.worst()
        toward = self.space.validate(toward)
        low_u = self(toward)
        high_u = self(ideal)
        if target >= high_u:
            return ideal
        if target <= low_u:
            return toward
        lo, hi = 0.0, 1.0  # blend weight towards `toward`
        for __ in range(50):
            mid = (lo + hi) / 2.0
            candidate = self.space.blend(ideal, toward, mid)
            if self(candidate) > target:
                lo = mid
            else:
                hi = mid
        return self.space.blend(ideal, toward, (lo + hi) / 2.0)


def buyer_utility(
    space: IssueSpace, weights: Optional[Mapping[str, float]] = None
) -> AdditiveUtility:
    """Standard buyer: dislikes price and response time, likes quality."""
    if weights is None:
        weights = {name: 1.0 for name in space.names}
    ascending = {}
    for name in space.names:
        ascending[name] = name not in ("price", "response_time")
    return AdditiveUtility(space, weights, ascending)


def seller_utility(
    space: IssueSpace, weights: Optional[Mapping[str, float]] = None
) -> AdditiveUtility:
    """Standard seller: likes price, dislikes strict promises."""
    if weights is None:
        weights = {name: 1.0 for name in space.names}
    ascending = {}
    for name in space.names:
        ascending[name] = name in ("price", "response_time")
    return AdditiveUtility(space, weights, ascending)


@dataclass
class NegotiationPreferences:
    """One party's full negotiation stance."""

    utility: AdditiveUtility
    reservation: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.reservation <= 1.0:
            raise ValueError("reservation must be in [0, 1]")
