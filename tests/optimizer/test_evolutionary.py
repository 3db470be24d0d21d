"""Tests for evolutionary and parametric plan search."""

import numpy as np
import pytest

from repro.data import TextDocument
from repro.optimizer import (
    CandidateAssignment,
    EvolutionarySearch,
    ExhaustiveSearch,
    GreedySearch,
    LoadRegime,
    ParametricPlanner,
    make_evaluator,
    scale_candidate,
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


class TestScaleCandidate:
    def test_scales_time_not_quality(self):
        rng = np.random.default_rng(1)
        table = _table(rng)
        candidate = table[sorted(table)[0]][0]
        scaled = scale_candidate(candidate, 2.0)
        assert scaled.expected.response_time == pytest.approx(
            2 * candidate.expected.response_time,
        )
        assert scaled.expected.completeness == candidate.expected.completeness
        assert scaled.cost.mean == pytest.approx(2 * candidate.cost.mean)

    def test_invalid_multiplier(self):
        rng = np.random.default_rng(1)
        table = _table(rng)
        candidate = table[sorted(table)[0]][0]
        with pytest.raises(ValueError):
            scale_candidate(candidate, 0.0)


class TestParametricPlanner:
    def test_prepares_one_plan_per_regime(self):
        rng = np.random.default_rng(11)
        table = _table(rng)
        planner = ParametricPlanner(ExhaustiveSearch())
        prepared = planner.prepare(table, EVALUATOR)
        assert set(prepared.by_regime) == {"light", "nominal", "heavy"}

    def test_heavy_load_prefers_faster_sources(self):
        rng = np.random.default_rng(13)
        table = _table(rng, n_jobs=3, n_sources=6)
        planner = ParametricPlanner(ExhaustiveSearch())
        prepared = planner.prepare(table, EVALUATOR)
        light = prepared.by_regime["light"].qos.response_time
        heavy = prepared.by_regime["heavy"].qos.response_time
        # Under the heavy multiplier the chosen plan's *baseline* time is
        # no longer than the light-regime choice (it trades quality for speed).
        assert heavy / 2.5 <= light / 0.7 + 1e-9

    def test_choose_picks_closest_regime(self):
        rng = np.random.default_rng(15)
        table = _table(rng)
        prepared = ParametricPlanner(ExhaustiveSearch()).prepare(table, EVALUATOR)
        assert prepared.choose(0.8) is prepared.by_regime["light"]
        assert prepared.choose(1.1) is prepared.by_regime["nominal"]
        assert prepared.choose(10.0) is prepared.by_regime["heavy"]

    def test_choose_invalid(self):
        rng = np.random.default_rng(15)
        prepared = ParametricPlanner(ExhaustiveSearch()).prepare(
            _table(rng), EVALUATOR,
        )
        with pytest.raises(ValueError):
            prepared.choose(0.0)

    def test_duplicate_regimes_rejected(self):
        with pytest.raises(ValueError):
            ParametricPlanner(ExhaustiveSearch(),
                              regimes=[LoadRegime("x", 1.0), LoadRegime("x", 2.0)])

    def test_empty_regimes_rejected(self):
        with pytest.raises(ValueError):
            ParametricPlanner(ExhaustiveSearch(), regimes=[])

    def test_invalid_regime(self):
        with pytest.raises(ValueError):
            LoadRegime("bad", 0.0)
