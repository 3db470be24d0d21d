"""Tests for plan search and baselines."""

import numpy as np
import pytest

from repro.data import TextDocument
from repro.optimizer import (
    CandidateAssignment,
    CostGreedyPlanner,
    EvolutionarySearch,
    ExhaustiveSearch,
    GreedySearch,
    LocalSearch,
    QualityGreedyPlanner,
    RandomPlanner,
    RoundRobinPlanner,
    baseline_suite,
    make_evaluator,
)
from repro.qos import QoSVector, QoSWeights
from repro.query import Query, QueryKind
from repro.sim import RngStreams
from repro.uncertainty import UncertainEstimate


def _query():
    return Query(
        kind=QueryKind.SIMILARITY,
        reference_item=TextDocument(
            item_id="ref", domain="museum", latent=np.array([1.0]), terms={"w00001": 1},
        ),
    )


def _candidate(query, domain, source_id, completeness, response_time, risk=0.05):
    return CandidateAssignment(
        subquery=query.restricted_to(domain),
        source_id=source_id,
        expected=QoSVector(response_time=response_time, completeness=completeness),
        cost=UncertainEstimate(mean=response_time, std=0.1 * response_time,
                               low=0.0, high=10 * response_time + 1),
        breach_risk=risk,
    )


@pytest.fixture
def table():
    query = _query()
    return {
        "j1": [
            _candidate(query, "museum", "good", 0.95, 1.0),
            _candidate(query, "museum", "slow", 0.95, 8.0),
            _candidate(query, "museum", "shallow", 0.30, 0.5),
        ],
        "j2": [
            _candidate(query, "auction", "ok", 0.7, 2.0),
            _candidate(query, "auction", "bad", 0.2, 6.0, risk=0.5),
        ],
    }


EVALUATOR = make_evaluator(QoSWeights(), price_sensitivity=0.02)


class TestExhaustive:
    def test_finds_obvious_best(self, table):
        result = ExhaustiveSearch().search(table, EVALUATOR)
        chosen = {
            job: replicas[0].source_id
            for job, replicas in result.best.plan.assignments.items()
        }
        assert chosen == {"j1": "good", "j2": "ok"}
        assert result.explored == 6

    def test_front_not_empty(self, table):
        result = ExhaustiveSearch().search(table, EVALUATOR)
        assert len(result.front) >= 1
        assert all(e.utility <= result.front[0].utility for e in result.front)

    def test_replication_considered(self, table):
        result = ExhaustiveSearch(max_replication=2).search(table, EVALUATOR)
        assert result.explored == 7  # 6 single + 1 replicated

    def test_space_guard(self, table):
        with pytest.raises(ValueError):
            ExhaustiveSearch(max_plans=2).search(table, EVALUATOR)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            ExhaustiveSearch().search({}, EVALUATOR)

    def test_needs_a_batch_scorer(self, table):
        with pytest.raises(TypeError):
            ExhaustiveSearch().search(table, lambda plan: EVALUATOR(plan))


@pytest.mark.parametrize(
    "searcher",
    [
        ExhaustiveSearch(),
        GreedySearch(),
        LocalSearch(),
        EvolutionarySearch(RngStreams(2).spawn("evo")),
    ],
    ids=["exhaustive", "greedy", "local", "evolutionary"],
)
def test_job_without_candidates_rejected(searcher, table):
    table["j3"] = []
    with pytest.raises(ValueError, match="^job j3 has no candidates$"):
        searcher.search(table, EVALUATOR)


class TestGreedy:
    def test_matches_exhaustive_on_separable_problem(self, table):
        exhaustive = ExhaustiveSearch().search(table, EVALUATOR)
        greedy = GreedySearch().search(table, EVALUATOR)
        assert greedy.best.plan.signature() == exhaustive.best.plan.signature()

    def test_explored_is_sum_of_candidates(self, table):
        result = GreedySearch().search(table, EVALUATOR)
        assert result.explored == 5


class TestLocalSearch:
    def test_at_least_as_good_as_greedy(self, table):
        greedy = GreedySearch().search(table, EVALUATOR)
        local = LocalSearch().search(table, EVALUATOR)
        assert local.best.risk_adjusted_utility >= greedy.best.risk_adjusted_utility - 1e-12

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            LocalSearch(max_iterations=0)


class TestBaselines:
    def test_random_covers_jobs(self, table):
        planner = RandomPlanner(RngStreams(3).spawn("b"))
        plan = planner.plan(table)
        assert set(plan.assignments) == {"j1", "j2"}

    def test_cost_greedy_picks_cheapest(self, table):
        plan = CostGreedyPlanner().plan(table)
        assert plan.assignments["j1"][0].source_id == "shallow"

    def test_quality_greedy_picks_most_complete(self, table):
        plan = QualityGreedyPlanner().plan(table)
        assert plan.assignments["j1"][0].source_id == "good"  # tie on completeness, cheaper wins

    def test_round_robin_cycles(self, table):
        planner = RoundRobinPlanner()
        first = planner.plan(table)
        second = planner.plan(table)
        assert (
            first.assignments["j1"][0].source_id
            != second.assignments["j1"][0].source_id
        )

    def test_suite_contains_four(self):
        assert len(baseline_suite(RngStreams(1).spawn("b"))) == 4

    def test_baselines_never_beat_exhaustive(self, table):
        exhaustive = ExhaustiveSearch().search(table, EVALUATOR)
        for planner in baseline_suite(RngStreams(5).spawn("b")):
            plan = planner.plan(table)
            assert EVALUATOR(plan).utility <= exhaustive.best.utility + 1e-9

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            CostGreedyPlanner().plan({})
