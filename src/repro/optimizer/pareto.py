"""Pareto utilities for multi-objective plan comparison.

"Any subset of these features may be together the target of a
multi-objective optimization process" (§4).  We compare plans on
(QoS utility, price): a plan dominates another when it is at least as good
on both and strictly better on one.  The front is the set of non-dominated
plans; hypervolume measures how much of objective space a front covers.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.optimizer.plans import PlanEvaluation


def dominates(a: PlanEvaluation, b: PlanEvaluation) -> bool:
    """True when ``a`` Pareto-dominates ``b`` on (utility ↑, price ↓)."""
    at_least = a.utility >= b.utility and a.price <= b.price
    strictly = a.utility > b.utility or a.price < b.price
    return at_least and strictly


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


def hypervolume(
    front: Sequence[PlanEvaluation],
    reference_price: float,
    reference_utility: float = 0.0,
) -> float:
    """2-D hypervolume of a front against a (price, utility) reference.

    Larger is better.  The reference should be a pessimistic corner:
    a price no acceptable plan exceeds and a utility floor.
    """
    if reference_price <= 0:
        raise ValueError("reference_price must be positive")
    points = sorted(
        {
            (e.price, e.utility)
            for e in front
            if e.price <= reference_price and e.utility >= reference_utility
        }
    )
    if not points:
        return 0.0
    # Walk from the most expensive point to the cheapest; the utility
    # ceiling at each price is the best utility among points at or below it.
    best_so_far = []
    best = reference_utility
    for __, utility in points:
        best = max(best, utility)
        best_so_far.append(best)
    volume = 0.0
    upper = reference_price
    for index in range(len(points) - 1, -1, -1):
        price = points[index][0]
        volume += (upper - price) * (best_so_far[index] - reference_utility)
        upper = price
    return volume


def regret(
    chosen: PlanEvaluation, evaluations: Sequence[PlanEvaluation]
) -> float:
    """Utility gap between the chosen plan and the best available one."""
    if not evaluations:
        raise ValueError("need at least one evaluation")
    best = max(e.utility for e in evaluations)
    return max(0.0, best - chosen.utility)
