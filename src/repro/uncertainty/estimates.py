"""Uncertain estimates for cost and cardinality.

"There is a limit on the accuracy of cost functions and data statistics
used by query optimizers" (§2).  The optimizer therefore works with
interval/moment estimates instead of point values: an
:class:`UncertainEstimate` carries a mean, a standard deviation and hard
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class UncertainEstimate:
    """A scalar quantity known only approximately.

    Attributes
    ----------
    mean / std:
        First two moments of the belief.
    low / high:
        Hard support bounds.
    """

    mean: float
    std: float = 0.0
    low: float = float("-inf")
    high: float = float("inf")

    def __post_init__(self) -> None:
        if self.std < 0:
            raise ValueError("std must be non-negative")
        if self.low > self.high:
            raise ValueError("low must not exceed high")
        if not self.low <= self.mean <= self.high:
            raise ValueError("mean must lie within [low, high]")
