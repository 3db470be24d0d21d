"""Tests for the latent topic space."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import TopicSpace


class TestConstruction:
    def test_default_names(self):
        space = TopicSpace(3)
        assert len(space.names) == 3

    def test_custom_names(self):
        space = TopicSpace(2, names=["a", "b"])
        assert space.names == ["a", "b"]

    def test_name_length_mismatch(self):
        with pytest.raises(ValueError):
            TopicSpace(2, names=["only-one"])

    def test_zero_topics_rejected(self):
        with pytest.raises(ValueError):
            TopicSpace(0)

    def test_many_topics_get_generated_names(self):
        space = TopicSpace(15)
        assert space.names[-1] == "topic-14"


class TestVectors:
    def test_validate_rejects_wrong_shape(self):
        space = TopicSpace(4)
        with pytest.raises(ValueError):
            space.validate(np.ones(3))

    def test_validate_rejects_negative(self):
        space = TopicSpace(3)
        with pytest.raises(ValueError):
            space.validate(np.array([0.5, -0.2, 0.7]))

    def test_normalize_sums_to_one(self):
        space = TopicSpace(4)
        vector = space.normalize(np.array([1.0, 1.0, 2.0, 0.0]))
        assert vector.sum() == pytest.approx(1.0)

    def test_normalize_zero_vector_gives_uniform(self):
        space = TopicSpace(4)
        vector = space.normalize(np.zeros(4))
        np.testing.assert_allclose(vector, 0.25)

    def test_basis_concentrates_on_topic(self):
        space = TopicSpace(5)
        vector = space.basis(space.names[2], weight=0.9)
        assert np.argmax(vector) == 2
        assert vector.sum() == pytest.approx(1.0)

    def test_basis_unknown_topic(self):
        with pytest.raises(KeyError):
            TopicSpace(3).basis("no-such-topic")

    def test_basis_invalid_weight(self):
        space = TopicSpace(3)
        with pytest.raises(ValueError):
            space.basis(space.names[0], weight=1.5)


class TestRelevance:
    def test_self_relevance_is_one(self):
        space = TopicSpace(4)
        vector = space.normalize(np.array([0.1, 0.2, 0.3, 0.4]))
        assert space.relevance(vector, vector) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        space = TopicSpace(2)
        assert space.relevance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_relevance_is_zero(self):
        space = TopicSpace(2)
        assert space.relevance(np.zeros(2), np.array([1.0, 0.0])) == 0.0

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
    def test_relevance_bounded(self, n_topics, seed):
        space = TopicSpace(n_topics)
        rng = np.random.default_rng(seed)
        a = space.sample(rng)
        b = space.sample(rng)
        value = space.relevance(a, b)
        assert 0.0 <= value <= 1.0 + 1e-9

    def test_relevance_symmetric(self):
        space = TopicSpace(5)
        rng = np.random.default_rng(3)
        a, b = space.sample(rng), space.sample(rng)
        assert space.relevance(a, b) == pytest.approx(space.relevance(b, a))


class TestSampling:
    def test_sample_on_simplex(self):
        space = TopicSpace(6)
        rng = np.random.default_rng(0)
        vector = space.sample(rng)
        assert vector.sum() == pytest.approx(1.0)
        assert np.all(vector >= 0)

    def test_prior_biases_samples(self):
        space = TopicSpace(4)
        rng = np.random.default_rng(0)
        prior = space.basis(space.names[1], weight=0.95)
        draws = np.stack([space.sample(rng, prior=prior) for __ in range(200)])
        assert np.argmax(draws.mean(axis=0)) == 1

    def test_peak_topic(self):
        space = TopicSpace(3, names=["x", "y", "z"])
        assert space.peak_topic(np.array([0.1, 0.7, 0.2])) == "y"


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFinite:
    """NaN or infinite components are rejected, never turned into NaN."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_validate_rejects(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            TopicSpace(3).validate(np.array([bad, 1.0, 1.0]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_validate_many_rejects(self, bad):
        vectors = [np.array([0.2, 0.3, 0.5]), np.array([1.0, bad, 1.0])]
        with pytest.raises(ValueError, match="non-finite"):
            TopicSpace(3).validate_many(vectors)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_normalize_rejects(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            TopicSpace(3).normalize([bad, 1.0, 1.0])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_relevance_rejects(self, bad):
        space = TopicSpace(3)
        good = np.array([0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="non-finite"):
            space.relevance(good, np.array([bad, 1.0, 1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            space.relevance(np.array([1.0, 1.0, bad]), good)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_relevance_many_rejects(self, bad):
        space = TopicSpace(3)
        good = np.array([0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="non-finite"):
            space.relevance_many(good, [good, np.array([1.0, bad, 1.0])])
        with pytest.raises(ValueError, match="non-finite"):
            space.relevance_many(np.array([bad, 0.0, 1.0]), [good])

    def test_tiny_negatives_clip_to_positive_zero(self):
        vector = TopicSpace(3).validate(np.array([-1e-13, -0.0, 1.0]))
        assert vector.tolist() == [0.0, 0.0, 1.0]
        assert not np.signbit(vector).any()
