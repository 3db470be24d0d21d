"""Multi-issue offer space.

A deal between a consumer and a source covers several issues at once —
price plus the promised QoS levels (completeness, freshness, correctness,
response time).  An :class:`Offer` assigns a value to every issue; an
:class:`IssueSpace` declares the issues and their ranges.  Utilities and
strategies are built on top of this space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

Offer = Dict[str, float]


@dataclass(frozen=True)
class Issue:
    """One negotiable dimension with an inclusive range."""

    name: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise ValueError(f"issue {self.name!r}: low must be < high")

    def clip(self, value: float) -> float:
        """Clamp a value into the issue's range."""
        return min(self.high, max(self.low, value))

    def normalise(self, value: float) -> float:
        """Map a value to [0, 1] within the issue's range."""
        return (self.clip(value) - self.low) / (self.high - self.low)


class IssueSpace:
    """The set of issues under negotiation."""

    def __init__(self, issues: Iterable[Issue]):
        self.issues: Tuple[Issue, ...] = tuple(issues)
        if not self.issues:
            raise ValueError("issue space must contain at least one issue")
        names = [issue.name for issue in self.issues]
        if len(set(names)) != len(names):
            raise ValueError("issue names must be unique")

    @property
    def names(self) -> List[str]:
        """Issue names in declaration order."""
        return [issue.name for issue in self.issues]

    def validate(self, offer: Mapping[str, float]) -> Offer:
        """Check ``offer`` covers every issue within range; return a copy."""
        missing = set(self.names) - set(offer)
        if missing:
            raise ValueError(f"offer missing issues: {sorted(missing)}")
        extra = set(offer) - set(self.names)
        if extra:
            raise ValueError(f"offer has unknown issues: {sorted(extra)}")
        validated: Offer = {}
        for issue in self.issues:
            value = float(offer[issue.name])
            if not issue.low - 1e-12 <= value <= issue.high + 1e-12:
                raise ValueError(
                    f"issue {issue.name!r}: value {value} outside "
                    f"[{issue.low}, {issue.high}]"
                )
            validated[issue.name] = issue.clip(value)
        return validated

    def blend(self, a: Mapping[str, float], b: Mapping[str, float], weight: float) -> Offer:
        """Componentwise convex combination: (1-weight)·a + weight·b."""
        if not 0.0 <= weight <= 1.0:
            raise ValueError("weight must be in [0, 1]")
        return {
            name: (1.0 - weight) * a[name] + weight * b[name] for name in self.names
        }


def standard_qos_issue_space(
    max_price: float = 20.0,
    max_response_time: float = 30.0,
) -> IssueSpace:
    """The default agora deal space: price + four QoS promises."""
    return IssueSpace(
        [
            Issue("price", 0.0, max_price),
            Issue("response_time", 0.01, max_response_time),
            Issue("completeness", 0.0, 1.0),
            Issue("freshness", 0.0, 1.0),
            Issue("correctness", 0.0, 1.0),
        ]
    )
