"""Statistics helpers for experiment reporting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Mean ± a normal-approximation confidence half-width."""

    mean: float
    ci: float
    n: int


def summarize(values: Sequence[float], z: float = 1.96) -> Summary:
    """Mean and 95% (by default) confidence half-width of ``values``."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        return Summary(mean=0.0, ci=0.0, n=0)
    mean = float(array.mean())
    if array.size == 1:
        return Summary(mean=mean, ci=0.0, n=1)
    sem = float(array.std(ddof=1) / np.sqrt(array.size))
    return Summary(mean=mean, ci=z * sem, n=int(array.size))


def win_rate(treatment: Sequence[float], baseline: Sequence[float]) -> float:
    """Fraction of paired trials where treatment strictly beats baseline."""
    treatment = list(treatment)
    baseline = list(baseline)
    if len(treatment) != len(baseline):
        raise ValueError("paired sequences must have equal length")
    if not treatment:
        return 0.0
    wins = sum(1 for t, b in zip(treatment, baseline) if t > b)
    return wins / len(treatment)


def ndcg(gains: Sequence[float], k: Optional[int] = None) -> float:
    """Normalised discounted cumulative gain of ``gains`` in ranked order.

    The ideal ranking sorts the same gains in descending order; both are
    cut at the first ``k`` (all of them when ``k`` is ``None``).  Returns
    0 for no gains or a zero ideal.
    """
    if k is not None and k < 0:
        raise ValueError("k must be non-negative")
    ranked = list(gains)[:k]
    if not ranked:
        return 0.0
    discounts = 1.0 / np.log2(np.arange(2, len(ranked) + 2))
    ideal_dcg = float(np.dot(sorted(gains, reverse=True)[:k], discounts))
    if ideal_dcg <= 0:
        return 0.0
    return float(np.dot(ranked, discounts)) / ideal_dcg
