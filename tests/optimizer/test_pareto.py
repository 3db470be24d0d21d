"""Tests for Pareto utilities."""

import numpy as np
import pytest

from repro.data import TextDocument
from repro.optimizer import (
    CandidateAssignment,
    CandidatePlan,
    PlanEvaluation,
    dominates,
    hypervolume,
    pareto_front,
    regret,
)
from repro.qos import QoSVector
from repro.query import Query, QueryKind
from repro.uncertainty import UncertainEstimate

from tests.property import plan_reference


def _evaluation(utility, price):
    query = Query(
        kind=QueryKind.SIMILARITY,
        reference_item=TextDocument(
            item_id=f"ref-{utility}-{price}", domain="museum",
            latent=np.array([1.0]), terms={"w00001": 1},
        ),
    )
    assignment = CandidateAssignment(
        subquery=query.restricted_to("museum"),
        source_id="s1",
        expected=QoSVector(),
        cost=UncertainEstimate.exact(price),
        breach_risk=0.0,
    )
    plan = CandidatePlan({"j1": [assignment]})
    return PlanEvaluation(
        plan=plan, qos=QoSVector(), price=price, utility=utility,
        risk_adjusted_utility=utility, breach_risk=0.0,
    )


class TestDominance:
    def test_better_both_dominates(self):
        assert dominates(_evaluation(0.9, 1.0), _evaluation(0.5, 2.0))

    def test_tradeoff_incomparable(self):
        a = _evaluation(0.9, 5.0)
        b = _evaluation(0.5, 1.0)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_equal_not_dominating(self):
        a = _evaluation(0.5, 1.0)
        b = _evaluation(0.5, 1.0)
        assert not dominates(a, b)


class TestFront:
    def test_front_filters_dominated(self):
        evaluations = [
            _evaluation(0.9, 1.0),
            _evaluation(0.5, 2.0),  # dominated
            _evaluation(0.95, 3.0),
        ]
        front = pareto_front(evaluations)
        utilities = [e.utility for e in front]
        assert 0.5 not in utilities
        assert len(front) == 2

    def test_front_sorted_by_utility(self):
        front = pareto_front([_evaluation(0.3, 0.1), _evaluation(0.9, 5.0)])
        assert front[0].utility == 0.9

    def test_duplicates_collapsed(self):
        front = pareto_front([_evaluation(0.5, 1.0), _evaluation(0.5, 1.0)])
        assert len(front) == 1

    def test_empty_front(self):
        assert pareto_front([]) == []


def _same_front_as_reference(points):
    evaluations = [_evaluation(utility, price) for utility, price in points]
    front = pareto_front(evaluations)
    expected = plan_reference.pareto_front(evaluations)
    assert [id(e) for e in front] == [id(e) for e in expected]


class TestFrontMatchesReference:
    """The single sweep keeps exactly the reference's members, in order."""

    @pytest.mark.parametrize(
        "points",
        [
            [(0.5, 1.0), (0.5, 1.0), (0.5, 1.0)],  # exact duplicates
            [(0.7, 2.0), (0.5, 1.0), (0.7, 2.0), (0.5, 1.0)],
            [(0.5, 1.0), (0.5 + 4e-13, 1.0)],  # within 1e-12: one point
            [(0.5, 1.0), (0.5, 1.0 - 4e-13)],
            [(0.5 + 4e-13, 1.0 + 4e-13), (0.5, 1.0), (0.6, 1.0 + 2e-13)],
            [(0.5 + 2e-12, 1.0), (0.5, 1.0 - 4e-13)],  # 12 decimals apart
            [(0.5 + 6e-13, 1.0), (0.5, 1.0 - 4e-13)],  # rounds to a new point
            [(0.5, 3.0), (0.5, 1.0), (0.5, 2.0)],  # equal utility, other prices
            [(0.9, 3.0), (0.5, 1.0), (0.5, 2.0), (0.9, 2.5)],
            [(0.0, 0.0), (0.0, 0.0), (0.0, 5.0)],
        ],
    )
    def test_edge_cases(self, points):
        _same_front_as_reference(points)

    def test_random_grids(self):
        rng = np.random.default_rng(17)
        for __ in range(200):
            n = int(rng.integers(1, 40))
            utilities = rng.choice([0.0, 0.25, 0.5, 0.5 + 3e-13, 0.75, 1.0], n)
            prices = rng.choice([0.0, 1.0, 1.0 + 3e-13, 2.0, 3.5], n)
            _same_front_as_reference(
                [(float(u), float(p)) for u, p in zip(utilities, prices)]
            )


class TestHypervolume:
    def test_single_point(self):
        volume = hypervolume([_evaluation(0.5, 2.0)], reference_price=10.0)
        assert volume == pytest.approx((10.0 - 2.0) * 0.5)

    def test_second_point_adds_volume(self):
        one = hypervolume([_evaluation(0.5, 2.0)], reference_price=10.0)
        two = hypervolume(
            [_evaluation(0.5, 2.0), _evaluation(0.9, 6.0)], reference_price=10.0
        )
        assert two > one

    def test_points_beyond_reference_ignored(self):
        volume = hypervolume([_evaluation(0.5, 20.0)], reference_price=10.0)
        assert volume == 0.0

    def test_invalid_reference(self):
        with pytest.raises(ValueError):
            hypervolume([], reference_price=0.0)


class TestRegret:
    def test_chosen_best_no_regret(self):
        evaluations = [_evaluation(0.9, 1.0), _evaluation(0.5, 1.0)]
        assert regret(evaluations[0], evaluations) == 0.0

    def test_regret_is_gap(self):
        evaluations = [_evaluation(0.9, 1.0), _evaluation(0.5, 1.0)]
        assert regret(evaluations[1], evaluations) == pytest.approx(0.4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            regret(_evaluation(0.5, 1.0), [])
