"""Tests for the matching engines (text, media, compound, cross-type)."""

import numpy as np
import pytest

from repro.data import (
    DomainSpec,
    FeatureExtractor,
)
from repro.data.items import Annotation, CompoundObject, TextDocument, make_item_id
from repro.uncertainty import ConceptLifter, LruCache, build_matching_engine
from repro.uncertainty.matching import MediaMatcher, TextMatcher


@pytest.fixture
def extractor(streams):
    return FeatureExtractor(true_dimensions=16, streams=streams.spawn("fx"))


def _media_domain(name="museum", topic="folk-jewelry"):
    return DomainSpec(
        name=name, topic_prior={topic: 1.0},
        type_mix={"text": 0.0, "media": 1.0, "compound": 0.0},
        concentration=0.3,
    )


def _text_domain(name="thesis", topic="academic-theses"):
    return DomainSpec(
        name=name, topic_prior={topic: 1.0},
        type_mix={"text": 1.0, "media": 0.0, "compound": 0.0},
        concentration=0.3,
    )


def _compound_domain(name="auction", topic="auction-market"):
    return DomainSpec(
        name=name, topic_prior={topic: 1.0},
        type_mix={"text": 0.0, "media": 0.0, "compound": 1.0},
        concentration=0.3,
    )


@pytest.fixture
def engine(corpus_generator, vocabulary, extractor):
    sample = corpus_generator.generate(_media_domain("sample"), 80)
    return build_matching_engine(vocabulary, extractor, lifter_sample=sample)


class TestTextMatcher:
    def test_identical_docs_score_high(self, corpus_generator):
        doc = corpus_generator.generate(_text_domain(), 1)[0]
        assert TextMatcher().score(doc, doc) == pytest.approx(1.0)

    def test_same_topic_beats_different_topic(self, corpus_generator):
        same = corpus_generator.generate(_text_domain("a", "dance-forms"), 20)
        other = corpus_generator.generate(_text_domain("b", "auction-market"), 20)
        matcher = TextMatcher()
        same_scores = [matcher.score(same[0], d) for d in same[1:]]
        cross_scores = [matcher.score(same[0], d) for d in other]
        assert np.mean(same_scores) > np.mean(cross_scores)


class TestMediaMatcher:
    def test_score_bounded(self, corpus_generator, extractor):
        items = corpus_generator.generate(_media_domain(), 10)
        matcher = MediaMatcher(extractor, "content_metadata")
        for item in items[1:]:
            assert 0.0 <= matcher.score(items[0], item) <= 1.0

    def test_high_fidelity_separates_topics_better(self, corpus_generator, extractor):
        jewelry = corpus_generator.generate(_media_domain("j", "folk-jewelry"), 15)
        tourism = corpus_generator.generate(_media_domain("t", "tourism"), 15)

        def separation(feature_set):
            matcher = MediaMatcher(extractor, feature_set)
            within = [
                matcher.score(jewelry[i], jewelry[j])
                for i in range(5) for j in range(5, 10)
            ]
            across = [
                matcher.score(jewelry[i], tourism[j])
                for i in range(5) for j in range(5)
            ]
            return np.mean(within) - np.mean(across)

        assert separation("content_metadata") > separation("color_histogram")


class TestConceptLifter:
    def test_unfitted_media_lift_raises(self, vocabulary, extractor, corpus_generator):
        lifter = ConceptLifter(vocabulary, extractor)
        item = corpus_generator.generate(_media_domain(), 1)[0]
        with pytest.raises(RuntimeError):
            lifter.lift(item)

    def test_fit_empty_sample_rejected(self, vocabulary, extractor):
        with pytest.raises(ValueError):
            ConceptLifter(vocabulary, extractor).fit([])

    def test_lift_text_normalised(self, vocabulary, extractor, corpus_generator):
        lifter = ConceptLifter(vocabulary, extractor)
        doc = corpus_generator.generate(_text_domain(), 1)[0]
        lifted = lifter.lift(doc)
        assert lifted.sum() == pytest.approx(1.0)
        assert np.all(lifted >= 0)

    def test_lift_media_recovers_topic(self, vocabulary, extractor, corpus_generator, topic_space):
        sample = corpus_generator.generate(_media_domain("train"), 100)
        lifter = ConceptLifter(vocabulary, extractor).fit(sample)
        corpus_generator.generate(_media_domain("test", "dance-forms"), 1)
        # Training was jewelry; test a differently-themed item set to check the
        # lift tracks latents rather than memorising: use items from training topic.
        probe = corpus_generator.generate(_media_domain("probe", "folk-jewelry"), 10)
        jewelry_index = topic_space.names.index("folk-jewelry")
        lifted = np.stack([lifter.lift(item) for item in probe])
        assert np.argmax(lifted.mean(axis=0)) == jewelry_index

    def test_lift_compound(self, vocabulary, extractor, corpus_generator):
        sample = corpus_generator.generate(_media_domain("train"), 60)
        lifter = ConceptLifter(vocabulary, extractor).fit(sample)
        compound = corpus_generator.generate(_compound_domain(), 1)[0]
        lifted = lifter.lift(compound)
        assert lifted.sum() == pytest.approx(1.0)

    def test_lift_compound_zero_weights_is_uniform(self, vocabulary, extractor):
        """Regression: all-zero part weights used to produce 0/0 = NaN."""
        lifter = ConceptLifter(vocabulary, extractor)
        part = TextDocument(
            item_id=make_item_id(), domain="d", latent=np.zeros(2),
            terms={"w00001": 3},
        )
        compound = CompoundObject(
            item_id=make_item_id(), domain="d", latent=np.zeros(2),
            parts=[(part, 0.0)],
        )
        lifted = lifter.lift(compound)
        assert np.all(np.isfinite(lifted))
        n = vocabulary.topic_space.n_topics
        assert np.allclose(lifted, np.full(n, 1.0 / n))

    def test_lift_compound_no_parts_is_uniform(self, vocabulary, extractor):
        lifter = ConceptLifter(vocabulary, extractor)
        compound = CompoundObject(
            item_id=make_item_id(), domain="d", latent=np.zeros(2), parts=[],
        )
        lifted = lifter.lift(compound)
        n = vocabulary.topic_space.n_topics
        assert np.allclose(lifted, np.full(n, 1.0 / n))

    def test_lift_annotation_is_uniform(self, vocabulary, extractor):
        """An annotation in a personal base used to make every query on
        that base raise TypeError."""
        lifter = ConceptLifter(vocabulary, extractor)
        note = Annotation(
            item_id=make_item_id("annotation"), domain="d", latent=np.ones(2),
            text="compare the clasp",
        )
        n = vocabulary.topic_space.n_topics
        assert np.array_equal(lifter.lift(note), np.full(n, 1.0 / n))

    def test_lift_is_memoized_and_cleared_on_fit(
        self, vocabulary, extractor, corpus_generator
    ):
        sample = corpus_generator.generate(_media_domain("train"), 60)
        lifter = ConceptLifter(vocabulary, extractor).fit(sample)
        item = corpus_generator.generate(_media_domain(), 1)[0]
        first = lifter.lift(item)
        assert lifter.lift(item) is first  # served from the cache
        lifter.fit(sample)
        assert lifter.lift(item) is not first  # cache dropped with weights


class TestLruCache:
    def test_eviction_respects_bound(self):
        cache = LruCache("probe", maxsize=2)
        for key in ("a", "b", "c"):
            cache.get_or_compute(key, lambda k=key: k.upper())
        assert len(cache) == 2
        assert cache.evictions == 1
        # "a" was evicted; recomputing it is a miss.
        assert cache.get_or_compute("a", lambda: "A2") == "A2"
        assert cache.misses == 4

    def test_recent_use_protects_entry(self):
        cache = LruCache("probe", maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: -1)  # refresh "a"
        cache.get_or_compute("c", lambda: 3)   # evicts "b", not "a"
        assert cache.get_or_compute("a", lambda: -1) == 1
        assert cache.hits == 2

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LruCache("probe", maxsize=0)

    def test_media_matcher_cache_is_bounded(self, corpus_generator, extractor):
        items = corpus_generator.generate(_media_domain(), 12)
        matcher = MediaMatcher(extractor, "content_metadata", cache_size=4)
        for item in items[1:]:
            matcher.score(items[0], item)
        assert len(matcher._cache) <= 4


class TestScoreManyEdges:
    def test_empty_candidates(self, engine, corpus_generator):
        query = corpus_generator.generate(_text_domain(), 1)[0]
        assert engine.prepare([]).score(query).shape == (0,)
        assert engine.rank_block(query, engine.prepare([])) == []

    def test_single_candidate_matches_score(self, engine, corpus_generator):
        query = corpus_generator.generate(_text_domain(), 1)[0]
        candidate = corpus_generator.generate(_media_domain(), 1)[0]
        batch = engine.prepare([candidate]).score(query)
        assert batch[0] == engine.score(query, candidate)

    def test_compound_query_batch(self, engine, corpus_generator):
        query = corpus_generator.generate(_compound_domain(), 1)[0]
        pool = corpus_generator.generate(_text_domain(), 3) + \
            corpus_generator.generate(_compound_domain("a2"), 2)
        batch = engine.prepare(pool).score(query)
        single = np.array([engine.score(query, c) for c in pool])
        assert np.array_equal(batch, single)

    @pytest.mark.parametrize("positions", [[], [4], [0, 2, 5], [1, 2, 3, 6]])
    def test_positions_rank_like_pairwise(self, engine, corpus_generator, positions):
        query = corpus_generator.generate(_text_domain(), 1)[0]
        pool = corpus_generator.generate(_text_domain("p"), 4) + \
            corpus_generator.generate(_media_domain("m"), 2) + \
            corpus_generator.generate(_compound_domain("c"), 2)
        block = engine.prepare(pool)
        expected = engine.rank_pairwise(query, [pool[p] for p in positions])
        assert engine.rank_block(query, block, positions) == expected
        assert engine.rank_block_topk(query, block, 2, positions) == expected[:2]


class TestMatchingEngine:
    def test_dispatch_text_text(self, engine, corpus_generator):
        docs = corpus_generator.generate(_text_domain(), 2)
        assert 0.0 <= engine.score(docs[0], docs[1]) <= 1.0

    def test_dispatch_cross_type(self, engine, corpus_generator):
        doc = corpus_generator.generate(_text_domain("a", "folk-jewelry"), 1)[0]
        media = corpus_generator.generate(_media_domain("b", "folk-jewelry"), 1)[0]
        score = engine.score(doc, media)
        assert 0.0 <= score <= 1.0

    def test_cross_type_same_topic_beats_other_topic(self, engine, corpus_generator):
        jewelry_docs = corpus_generator.generate(_text_domain("a", "folk-jewelry"), 10)
        jewelry_media = corpus_generator.generate(_media_domain("b", "folk-jewelry"), 10)
        thesis_media = corpus_generator.generate(_media_domain("c", "academic-theses"), 10)
        same = np.mean([
            engine.score(doc, media)
            for doc, media in zip(jewelry_docs, jewelry_media)
        ])
        cross = np.mean([
            engine.score(doc, media)
            for doc, media in zip(jewelry_docs, thesis_media)
        ])
        assert same > cross

    def test_compound_dispatch(self, engine, corpus_generator):
        compound = corpus_generator.generate(_compound_domain(), 1)[0]
        doc = corpus_generator.generate(_text_domain(), 1)[0]
        assert 0.0 <= engine.score(compound, doc) <= 1.0

    def test_compound_compound(self, engine, corpus_generator):
        compounds = corpus_generator.generate(_compound_domain(), 2)
        assert 0.0 <= engine.score(compounds[0], compounds[1]) <= 1.0

    def test_rank_orders_descending(self, engine, corpus_generator):
        query = corpus_generator.generate(_text_domain("q", "dance-forms"), 1)[0]
        candidates = corpus_generator.generate(_text_domain("c", "dance-forms"), 5)
        ranked = engine.rank_block(query, engine.prepare(candidates))
        scores = [score for __, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_rank_finds_relevant_first(self, engine, corpus_generator):
        query = corpus_generator.generate(_text_domain("q", "dance-forms"), 1)[0]
        relevant = corpus_generator.generate(_text_domain("r", "dance-forms"), 5)
        irrelevant = corpus_generator.generate(_text_domain("i", "auction-market"), 5)
        ranked = engine.rank_block(query, engine.prepare(relevant + irrelevant))
        top_domains = {item.domain for item, __ in ranked[:3]}
        assert "r" in top_domains
