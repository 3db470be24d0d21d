"""Quality-of-service vectors and requirements.

Section 3 of the paper: query results carry several quality indicators
"beyond the traditional response time or work: completeness, freshness,
trustworthiness, etc.", and users trade these off against each other.

A :class:`QoSVector` holds the five indicators this library tracks.  All
quality dimensions are "higher is better" in [0, 1] except
``response_time``, which is "lower is better" and unbounded; utilities map
it through a half-life transform so vectors can be compared on a common
scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

QUALITY_DIMENSIONS = ("completeness", "freshness", "correctness", "trust")
ALL_DIMENSIONS = ("response_time",) + QUALITY_DIMENSIONS


@dataclass(frozen=True)
class QoSVector:
    """Delivered or promised quality of a query result.

    Attributes
    ----------
    response_time:
        Virtual time to deliver (lower better, >= 0).
    completeness:
        Fraction of truly relevant reachable items returned, in [0, 1].
    freshness:
        How current the returned items are, in [0, 1].
    correctness:
        Fraction of returned items that are sound, in [0, 1].
    trust:
        Trustworthiness of the providing sources, in [0, 1].
    """

    response_time: float = 0.0
    completeness: float = 1.0
    freshness: float = 1.0
    correctness: float = 1.0
    trust: float = 1.0

    def __post_init__(self) -> None:
        if self.response_time < 0:
            raise ValueError("response_time must be non-negative")
        for dim in QUALITY_DIMENSIONS:
            value = getattr(self, dim)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{dim} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class QoSWeights:
    """A user's trade-off weights over QoS dimensions.

    Weights need not sum to one; :meth:`normalised` rescales them.
    ``response_half_life`` sets the response time at which the time-utility
    falls to 0.5.
    """

    response_time: float = 1.0
    completeness: float = 1.0
    freshness: float = 1.0
    correctness: float = 1.0
    trust: float = 1.0
    response_half_life: float = 10.0

    def __post_init__(self) -> None:
        for dim in ALL_DIMENSIONS:
            if getattr(self, dim) < 0:
                raise ValueError(f"weight {dim} must be non-negative")
        if self.response_half_life <= 0:
            raise ValueError("response_half_life must be positive")

    def normalised(self) -> "QoSWeights":
        """A copy whose weights sum to one."""
        total = sum(getattr(self, dim) for dim in ALL_DIMENSIONS)
        if total <= 0:
            raise ValueError("at least one weight must be positive")
        return QoSWeights(
            **{dim: getattr(self, dim) / total for dim in ALL_DIMENSIONS},
            response_half_life=self.response_half_life,
        )


def time_utility(response_time: float, half_life: float) -> float:
    """Map response time to a utility in (0, 1]; 0.5 at ``half_life``."""
    if response_time < 0:
        raise ValueError("response_time must be non-negative")
    return half_life / (half_life + response_time)


def scalarize(vector: QoSVector, weights: QoSWeights) -> float:
    """Weighted utility of a QoS vector in [0, 1]."""
    weights = weights.normalised()
    utility = weights.response_time * time_utility(
        vector.response_time, weights.response_half_life
    )
    for dim in QUALITY_DIMENSIONS:
        utility += getattr(weights, dim) * getattr(vector, dim)
    return utility


@dataclass(frozen=True)
class QoSRequirement:
    """Bounds a consumer (or an SLA) places on delivered QoS.

    ``None`` means the dimension is unconstrained.
    """

    max_response_time: Optional[float] = None
    min_completeness: Optional[float] = None
    min_freshness: Optional[float] = None
    min_correctness: Optional[float] = None
    min_trust: Optional[float] = None

    _BOUNDS: Tuple[Tuple[str, str], ...] = field(
        default=(
            ("max_response_time", "response_time"),
            ("min_completeness", "completeness"),
            ("min_freshness", "freshness"),
            ("min_correctness", "correctness"),
            ("min_trust", "trust"),
        ),
        repr=False,
        compare=False,
    )

    def violated_dimensions(self, delivered: QoSVector) -> List[str]:
        """List the QoS dimensions of ``delivered`` that break this requirement."""
        violations: List[str] = []
        if (
            self.max_response_time is not None
            and delivered.response_time > self.max_response_time + 1e-12
        ):
            violations.append("response_time")
        for bound_name, dim in self._BOUNDS[1:]:
            bound = getattr(self, bound_name)
            if bound is not None and getattr(delivered, dim) < bound - 1e-12:
                violations.append(dim)
        return violations

    def relaxed(self, factor: float) -> "QoSRequirement":
        """Loosen every bound by ``factor`` ∈ [0, 1].

        Quality floors shrink towards 0 by ``factor``; the response-time
        ceiling grows by ``1/(1-factor)``.  ``factor=0`` is a no-op;
        ``factor`` near 1 approaches an unconstrained requirement.  Used
        when a market refuses the original terms and the consumer trades
        quality for service (§3).
        """
        if not 0.0 <= factor < 1.0:
            raise ValueError("factor must be in [0, 1)")
        scale = 1.0 - factor
        return QoSRequirement(
            max_response_time=(
                self.max_response_time / scale
                if self.max_response_time is not None else None
            ),
            min_completeness=(
                self.min_completeness * scale
                if self.min_completeness is not None else None
            ),
            min_freshness=(
                self.min_freshness * scale
                if self.min_freshness is not None else None
            ),
            min_correctness=(
                self.min_correctness * scale
                if self.min_correctness is not None else None
            ),
            min_trust=(
                self.min_trust * scale if self.min_trust is not None else None
            ),
        )
