"""Tests for evolutionary plan search."""

import numpy as np
import pytest

from repro.data import TextDocument
from repro.optimizer import (
    CandidateAssignment,
    EvolutionarySearch,
    ExhaustiveSearch,
    GreedySearch,
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
            item_id="ref", domain="museum", latent=np.array([1.0]),
            terms={"w00001": 1},
        ),
    )


def _table(rng, n_jobs=4, n_sources=5):
    query = _query()
    table = {}
    for job_index in range(n_jobs):
        subquery = query.restricted_to(f"d{job_index}")
        candidates = []
        for source_index in range(n_sources):
            response_time = float(rng.uniform(0.3, 6.0))
            completeness = float(np.clip(
                0.15 + 0.7 * response_time / 6.0 + rng.normal(0, 0.1), 0.05, 1.0,
            ))
            candidates.append(CandidateAssignment(
                subquery=subquery, source_id=f"s{source_index}",
                expected=QoSVector(response_time=response_time,
                                   completeness=completeness),
                cost=UncertainEstimate(mean=response_time,
                                       std=0.1 * response_time,
                                       low=0.0, high=30.0),
                breach_risk=0.0,
            ))
        table[subquery.subquery_id] = candidates
    return table


EVALUATOR = make_evaluator(QoSWeights(), price_sensitivity=0.02)


class TestEvolutionarySearch:
    def test_finds_near_optimal_plans(self):
        rng = np.random.default_rng(3)
        table = _table(rng)
        exhaustive = ExhaustiveSearch().search(table, EVALUATOR)
        evolutionary = EvolutionarySearch(
            RngStreams(3).spawn("evo"), population_size=20, generations=25,
        ).search(table, EVALUATOR)
        assert evolutionary.best.utility >= 0.95 * exhaustive.best.utility

    def test_beats_random_start(self):
        rng = np.random.default_rng(5)
        table = _table(rng, n_jobs=5, n_sources=6)
        evolutionary = EvolutionarySearch(
            RngStreams(5).spawn("evo"), population_size=12, generations=15,
        ).search(table, EVALUATOR)
        greedy = GreedySearch().search(table, EVALUATOR)
        # Evolution matches or beats greedy on correlated markets.
        assert evolutionary.best.utility >= 0.9 * greedy.best.utility

    def test_front_is_nonempty_and_sorted(self):
        rng = np.random.default_rng(7)
        table = _table(rng)
        result = EvolutionarySearch(RngStreams(7).spawn("evo")).search(
            table, EVALUATOR,
        )
        assert result.front
        utilities = [e.utility for e in result.front]
        assert utilities == sorted(utilities, reverse=True)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        table = _table(rng)
        a = EvolutionarySearch(RngStreams(9).spawn("evo")).search(table, EVALUATOR)
        b = EvolutionarySearch(RngStreams(9).spawn("evo")).search(table, EVALUATOR)
        assert a.best.plan.signature() == b.best.plan.signature()

    def test_invalid_params(self):
        streams = RngStreams(1).spawn("evo")
        with pytest.raises(ValueError):
            EvolutionarySearch(streams, population_size=1)
        with pytest.raises(ValueError):
            EvolutionarySearch(streams, generations=0)
        with pytest.raises(ValueError):
            EvolutionarySearch(streams, mutation_rate=1.5)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            EvolutionarySearch(RngStreams(1).spawn("evo")).search({}, EVALUATOR)
