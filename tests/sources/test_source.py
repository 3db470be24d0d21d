"""Tests for information sources."""

import numpy as np
import pytest

from repro.data import DomainSpec
from repro.net import NodeHealth
from repro.obs import MetricsRegistry
from repro.sim import Simulator
from repro.sources import InformationSource, SourceQuality

from tests.conftest import make_source, make_topic_query


class TestSourceQuality:
    def test_defaults_valid(self):
        SourceQuality()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"coverage": 1.5},
            {"freshness_lag": -1.0},
            {"error_rate": 2.0},
            {"trust_class": "nonsense"},
            {"overpromise": -0.5},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            SourceQuality(**kwargs)


class TestIngestion:
    def test_full_coverage_indexes_everything(
        self, corpus_generator, matching_engine, streams
    ):
        source = make_source("s1", corpus_generator, matching_engine, streams, n_items=30)
        assert len(source.visible_items(float("inf"))) == 30

    def test_partial_coverage_drops_items(
        self, corpus_generator, matching_engine, streams
    ):
        source = make_source(
            "s1", corpus_generator, matching_engine, streams, n_items=200,
            quality=SourceQuality(coverage=0.5, freshness_lag=0.0),
        )
        assert 60 < len(source.visible_items(float("inf"))) < 140

    def test_freshness_lag_delays_visibility(
        self, corpus_generator, matching_engine, streams
    ):
        source = make_source(
            "s1", corpus_generator, matching_engine, streams, n_items=100,
            quality=SourceQuality(coverage=1.0, freshness_lag=50.0),
        )
        now_visible = len(source.visible_items(0.0))
        later_visible = len(source.visible_items(1000.0))
        assert now_visible < later_visible
        assert later_visible == 100

    def test_visible_items_filter_by_domain(
        self, corpus_generator, matching_engine, streams
    ):
        source = make_source("s1", corpus_generator, matching_engine, streams)
        assert source.visible_items(0.0, domain="no-such-domain") == []

    def test_empty_domains_rejected(self, matching_engine, streams):
        with pytest.raises(ValueError):
            InformationSource(
                "s1", "n1", [], SourceQuality(), matching_engine, streams
            )


class TestAnswering:
    def test_answers_topic_query(
        self, corpus_generator, matching_engine, streams, topic_space, vocabulary
    ):
        source = make_source("s1", corpus_generator, matching_engine, streams)
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        answer = source.answer(query.restricted_to("museum"), now=0.0)
        assert not answer.declined
        assert 0 < len(answer.matches) <= 5
        assert answer.service_time > 0
        assert answer.candidates_scanned == 40

    def test_scores_bounded(
        self, corpus_generator, matching_engine, streams, topic_space, vocabulary
    ):
        source = make_source("s1", corpus_generator, matching_engine, streams)
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        answer = source.answer(query.restricted_to("museum"), now=0.0)
        for __, score in answer.matches:
            assert 0.0 <= score <= 1.0

    def test_error_rate_corrupts_scores(
        self, corpus_generator, matching_engine, streams, topic_space, vocabulary
    ):
        clean = make_source(
            "clean", corpus_generator, matching_engine, streams,
            quality=SourceQuality(coverage=1.0, freshness_lag=0.0, error_rate=0.0),
        )
        noisy = make_source(
            "noisy", corpus_generator, matching_engine, streams,
            quality=SourceQuality(coverage=1.0, freshness_lag=0.0, error_rate=1.0),
        )
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=10)
        clean_answer = clean.answer(query.restricted_to("museum"), now=0.0)
        noisy_answer = noisy.answer(query.restricted_to("museum"), now=0.0)
        clean_scores = [s for __, s in clean_answer.matches]
        noisy_scores = [s for __, s in noisy_answer.matches]
        # Corrupted scores are uniform noise — much higher variance.
        assert np.std(noisy_scores) > np.std(clean_scores)

    def test_late_visible_item_extends_block(
        self, corpus_generator, matching_engine, streams, topic_space, vocabulary
    ):
        """An item that turns visible before a cached one never rebuilds.

        Buckets are append-only, so the source's block only ever extends;
        each answer is still the pairwise ranking of the visible items.
        """
        metrics = MetricsRegistry()
        spec = DomainSpec(name="museum", topic_prior={"folk-jewelry": 1.0})
        source = InformationSource(
            source_id="s1", node_id="n1", domains=["museum"],
            quality=SourceQuality(coverage=1.0, freshness_lag=50.0, error_rate=0.0),
            engine=matching_engine, streams=streams.spawn("late"), metrics=metrics,
        )
        base = corpus_generator.generate(spec, 10)
        late, prompt = corpus_generator.generate(spec, 2)
        source.ingest(base, now=0.0, immediate=True)
        source.ingest([late], now=0.0)
        subquery = make_topic_query(
            topic_space, vocabulary, "folk-jewelry", k=20
        ).restricted_to("museum")
        source.answer(subquery, now=0.0)  # builds the block, late at its end
        source.ingest([prompt], now=0.0, immediate=True)
        for now, expected_visible in [(0.0, base + [prompt]), (1e9, base + [late, prompt])]:
            visible = source.visible_items(now, "museum")
            assert visible == expected_visible
            answer = source.answer(subquery, now=now)
            expected = matching_engine.rank_pairwise(subquery.evidence_item(), visible)
            assert [i.item_id for i, __ in answer.matches] == [
                i.item_id for i, __ in expected
            ]
            assert [s for __, s in answer.matches] == [s for __, s in expected]
        counters = metrics.counters()
        assert "source.block_cache.rebuilds" not in counters
        assert counters["source.block_cache.misses"] == 1
        assert counters["source.block_cache.extends"] == 1
        assert counters["source.block_cache.hits"] == 1


class TestParticipation:
    def test_down_node_declined(
        self, corpus_generator, matching_engine, streams, topic_space, vocabulary
    ):
        sim = Simulator(seed=1)
        source = make_source("s1", corpus_generator, matching_engine, streams)
        health = NodeHealth(sim, [source.node_id], sim.rng.spawn("h"), enabled=False)
        source.health = health
        health.set_state(source.node_id, False)
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        answer = source.answer(query.restricted_to("museum"), now=0.0)
        assert answer.declined
        assert answer.decline_reason == "unavailable"


class TestAdvertising:
    def test_true_quality_reflects_parameters(
        self, corpus_generator, matching_engine, streams
    ):
        source = make_source(
            "s1", corpus_generator, matching_engine, streams,
            quality=SourceQuality(coverage=0.8, freshness_lag=0.0, error_rate=0.1),
        )
        truth = source.true_quality_vector(now=0.0, domain="museum")
        assert truth.correctness == pytest.approx(0.9)
        assert truth.completeness <= 0.8 + 1e-9

    def test_advertised_is_rosier_than_truth(
        self, corpus_generator, matching_engine, streams
    ):
        source = make_source(
            "s1", corpus_generator, matching_engine, streams,
            quality=SourceQuality(
                coverage=0.7, freshness_lag=10.0, error_rate=0.2, overpromise=0.3
            ),
        )
        truth = source.true_quality_vector(200.0, "museum")
        claimed = source.advertised_quality(200.0, "museum")
        assert claimed.completeness > truth.completeness
        assert claimed.correctness > truth.correctness
        assert claimed.response_time < truth.response_time

    def test_honest_source_advertises_truth(
        self, corpus_generator, matching_engine, streams
    ):
        source = make_source(
            "s1", corpus_generator, matching_engine, streams,
            quality=SourceQuality(coverage=0.9, freshness_lag=0.0,
                                  error_rate=0.1, overpromise=0.0),
        )
        truth = source.true_quality_vector(0.0, "museum")
        claimed = source.advertised_quality(0.0, "museum")
        assert claimed.correctness == pytest.approx(truth.correctness)
