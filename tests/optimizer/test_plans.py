"""Tests for candidate plans and their evaluation."""

import numpy as np
import pytest

from repro.data import TextDocument
from repro.optimizer import CandidateAssignment, CandidatePlan, evaluate_plan
from repro.optimizer.plans import PlanColumns
from repro.qos import QoSVector, QoSWeights
from repro.query import Query, QueryKind, Retrieve, TopK
from repro.uncertainty import UncertainEstimate, risk_averse, risk_neutral, risk_seeking


def _query():
    return Query(
        kind=QueryKind.SIMILARITY,
        reference_item=TextDocument(
            item_id="ref", domain="museum", latent=np.array([1.0]), terms={"w00001": 1},
        ),
        k=5,
    )


def _assignment(query, domain, source_id, completeness=0.8, response_time=1.0, risk=0.1):
    return CandidateAssignment(
        subquery=query.restricted_to(domain),
        source_id=source_id,
        expected=QoSVector(response_time=response_time, completeness=completeness),
        cost=UncertainEstimate(mean=response_time, std=0.1, low=0.0, high=10.0),
        breach_risk=risk,
    )


def _columns(plan):
    """The plan's expected QoS, price and breach risk (one-plan batch)."""
    return PlanColumns.aggregate(*plan.batch())


class TestCandidatePlan:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CandidatePlan({})

    def test_job_without_source_rejected(self):
        with pytest.raises(ValueError):
            CandidatePlan({"j1": []})

    def test_duplicate_source_per_job_rejected(self):
        query = _query()
        a = _assignment(query, "museum", "s1")
        with pytest.raises(ValueError):
            CandidatePlan({"j1": [a, a]})

    def test_response_time_is_max(self):
        query = _query()
        plan = CandidatePlan({
            "j1": [_assignment(query, "museum", "s1", response_time=1.0)],
            "j2": [_assignment(query, "auction", "s2", response_time=3.0)],
        })
        assert _columns(plan).qos(0).response_time == 3.0

    def test_replication_boosts_completeness(self):
        query = _query()
        single = CandidatePlan({
            "j1": [_assignment(query, "museum", "s1", completeness=0.5)],
        })
        replicated = CandidatePlan({
            "j1": [
                _assignment(query, "museum", "s1", completeness=0.5),
                _assignment(query, "museum", "s2", completeness=0.5),
            ],
        })
        assert _columns(replicated).qos(0).completeness == pytest.approx(0.75)
        assert _columns(single).qos(0).completeness == pytest.approx(0.5)

    def test_price_sums_costs(self):
        query = _query()
        plan = CandidatePlan({
            "j1": [_assignment(query, "museum", "s1", response_time=1.0)],
            "j2": [_assignment(query, "auction", "s2", response_time=2.0)],
        })
        assert _columns(plan).price[0] == pytest.approx(3.0)

    def test_breach_risk_composes(self):
        query = _query()
        plan = CandidatePlan({
            "j1": [_assignment(query, "museum", "s1", risk=0.5)],
            "j2": [_assignment(query, "auction", "s2", risk=0.5)],
        })
        assert _columns(plan).breach_risk[0] == pytest.approx(0.75)

    def test_to_plan_tree(self):
        query = _query()
        plan = CandidatePlan({
            "j1": [_assignment(query, "museum", "s1")],
        })
        tree = plan.to_plan_tree(query)
        assert isinstance(tree, TopK)
        leaves = tree.leaves()
        assert len(leaves) == 1
        assert isinstance(leaves[0], Retrieve)
        assert leaves[0].source_id == "s1"

    def test_signature_identity(self):
        query = _query()
        a = CandidatePlan({"j1": [_assignment(query, "museum", "s1")]})
        b = CandidatePlan({"j1": [_assignment(query, "museum", "s1", completeness=0.2)]})
        assert a.signature() == b.signature()


class TestEvaluation:
    def test_utility_bounded(self):
        query = _query()
        plan = CandidatePlan({"j1": [_assignment(query, "museum", "s1")]})
        evaluation = evaluate_plan(plan, QoSWeights())
        assert 0.0 <= evaluation.utility <= 1.0

    def test_price_sensitivity_lowers_utility(self):
        query = _query()
        plan = CandidatePlan({"j1": [_assignment(query, "museum", "s1", response_time=5.0)]})
        cheap_view = evaluate_plan(plan, QoSWeights(), price_sensitivity=0.0)
        costly_view = evaluate_plan(plan, QoSWeights(), price_sensitivity=0.1)
        assert costly_view.utility < cheap_view.utility

    def test_risk_averse_penalises_risky_plans_more(self):
        query = _query()
        risky = CandidatePlan({"j1": [_assignment(query, "museum", "s1", risk=0.6)]})
        averse = evaluate_plan(risky, QoSWeights(), risk_profile=risk_averse())
        neutral = evaluate_plan(risky, QoSWeights(), risk_profile=risk_neutral())
        seeking = evaluate_plan(risky, QoSWeights(), risk_profile=risk_seeking())
        assert averse.risk_adjusted_utility < neutral.risk_adjusted_utility
        assert seeking.risk_adjusted_utility > neutral.risk_adjusted_utility

    def test_safe_plan_unaffected_by_risk_attitude(self):
        query = _query()
        safe = CandidatePlan({"j1": [_assignment(query, "museum", "s1", risk=0.0)]})
        averse = evaluate_plan(safe, QoSWeights(), risk_profile=risk_averse())
        neutral = evaluate_plan(safe, QoSWeights(), risk_profile=risk_neutral())
        assert averse.risk_adjusted_utility == pytest.approx(
            neutral.risk_adjusted_utility, abs=1e-6
        )
