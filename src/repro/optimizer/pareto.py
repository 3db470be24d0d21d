"""Pareto utilities for multi-objective plan comparison.

"Any subset of these features may be together the target of a
multi-objective optimization process" (§4).  We compare plans on
(QoS utility, price): a plan dominates another when it is at least as good
on both and strictly better on one.  The front is the set of non-dominated
plans.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.optimizer.plans import PlanEvaluation


def pareto_indices(utilities: Sequence[float], prices: Sequence[float]) -> List[int]:
    """Positions of the non-dominated (utility, price) points, by descending utility.

    One sweep over the points stably sorted by (-utility, price).  In that
    order no point can dominate an earlier one, so a point joins the front
    exactly when its price is strictly below every member's (the last
    member's is the lowest) and its point, rounded to 12 decimals by
    Python's ``round``, is new.  Duplicate points are kept once (the first
    encountered).
    """
    order = np.lexsort((np.asarray(prices, dtype=float), -np.asarray(utilities, dtype=float)))
    front: List[int] = []
    seen_points = set()
    for index in order.tolist():
        if front and not prices[index] < prices[front[-1]]:
            continue
        point = (round(utilities[index], 12), round(prices[index], 12))
        if point in seen_points:
            continue
        front.append(index)
        seen_points.add(point)
    return front


def pareto_front(evaluations: Sequence[PlanEvaluation]) -> List[PlanEvaluation]:
    """Non-dominated subset, sorted by descending utility.

    Duplicate objective points are kept once (the first encountered).
    """
    indices = pareto_indices(
        [e.utility for e in evaluations], [e.price for e in evaluations]
    )
    return [evaluations[i] for i in indices]
