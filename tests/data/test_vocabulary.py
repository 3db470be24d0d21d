"""Tests for the topic-conditioned vocabulary."""

import numpy as np
import pytest

from repro.data import TopicSpace, Vocabulary
from repro.sim import RngStreams


@pytest.fixture
def space():
    return TopicSpace(5)


@pytest.fixture
def vocab(space):
    return Vocabulary(
        space, RngStreams(11).spawn("v"), vocabulary_size=300, terms_per_topic=50
    )


class TestConstruction:
    def test_vocab_smaller_than_topic_terms_rejected(self, space):
        with pytest.raises(ValueError):
            Vocabulary(space, RngStreams(1).spawn("v"), vocabulary_size=10, terms_per_topic=50)

    def test_term_names(self, vocab):
        assert vocab.terms[0] == "w00000"
        assert len(vocab.terms) == 300


class TestSampling:
    def test_sample_respects_length(self, vocab, space):
        rng = np.random.default_rng(0)
        latent = space.basis(space.names[0])
        bag = vocab.sample_terms(latent, rng, length=80)
        assert sum(bag.values()) == 80

    def test_same_topic_docs_share_more_terms(self, vocab, space):
        rng = np.random.default_rng(0)
        latent_a = space.basis(space.names[0], weight=0.95)
        latent_b = space.basis(space.names[1], weight=0.95)

        def overlap(bag1, bag2):
            return len(set(bag1) & set(bag2))

        same, different = [], []
        for __ in range(20):
            d1 = vocab.sample_terms(latent_a, rng, length=100)
            d2 = vocab.sample_terms(latent_a, rng, length=100)
            d3 = vocab.sample_terms(latent_b, rng, length=100)
            same.append(overlap(d1, d2))
            different.append(overlap(d1, d3))
        assert np.mean(same) > np.mean(different)


class TestPosterior:
    def test_posterior_sums_to_one(self, vocab, space):
        rng = np.random.default_rng(0)
        bag = vocab.sample_terms(space.basis(space.names[2]), rng, length=100)
        posterior = vocab.topic_posterior(bag)
        assert posterior.sum() == pytest.approx(1.0)

    def test_posterior_recovers_dominant_topic(self, vocab, space):
        rng = np.random.default_rng(0)
        hits = 0
        for __ in range(10):
            bag = vocab.sample_terms(space.basis(space.names[3], weight=0.95), rng, length=150)
            posterior = vocab.topic_posterior(bag)
            if int(np.argmax(posterior)) == 3:
                hits += 1
        assert hits >= 8


class TestTermIndices:
    def test_vocabulary_terms_in_bag_order(self, vocab):
        assert vocab._term_indices({"w00007": 1, "w00003": 2}) == ([7, 3], [1, 2])

    def test_other_spellings_keep_their_parse(self, vocab):
        # Strings outside the vocabulary are read as int(term[1:]).
        bag = {"w5": 2, "x00012": 4, "nonsense": 1, "w99999": 3, "": 1}
        assert vocab._term_indices(bag) == ([5, 12], [2, 4])

    def test_sampled_bag_is_in_vocabulary_order(self, vocab, space):
        bag = vocab.sample_terms(space.basis(space.names[0]), np.random.default_rng(3))
        assert list(bag) == sorted(bag)
        assert all(type(count) is int and count > 0 for count in bag.values())
