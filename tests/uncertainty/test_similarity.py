"""Tests for similarity primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.uncertainty import (
    EnsembleSimilarity,
    bag_cosine,
    cosine_similarity,
    jaccard_similarity,
    nonnegative_cosine,
    sublinear_tf,
    weighted_jaccard,
)

vectors = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=3, max_size=3
).map(np.array)


class TestCosine:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_opposite_vectors(self):
        v = np.array([1.0, 0.0])
        assert cosine_similarity(v, -v) == pytest.approx(0.0)

    def test_orthogonal_is_half(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.5

    def test_zero_vector(self):
        assert cosine_similarity(np.zeros(2), np.array([1.0, 0.0])) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.zeros(2), np.zeros(3))

    @given(vectors, vectors)
    def test_bounded(self, a, b):
        assert 0.0 <= cosine_similarity(a, b) <= 1.0

    def test_nonnegative_cosine_bounds(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.5, 0.5])
        assert 0.0 <= nonnegative_cosine(a, b) <= 1.0


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard_similarity({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard_similarity({"a"}, {"b"}) == 0.0

    def test_both_empty(self):
        assert jaccard_similarity(set(), set()) == 1.0

    def test_partial_overlap(self):
        assert jaccard_similarity({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_weighted_identical(self):
        bag = {"a": 2.0, "b": 1.0}
        assert weighted_jaccard(bag, bag) == 1.0

    def test_weighted_disjoint(self):
        assert weighted_jaccard({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_weighted_empty(self):
        assert weighted_jaccard({}, {}) == 1.0


class TestBagCosine:
    def test_identical(self):
        bag = {"a": 1.0, "b": 2.0}
        assert bag_cosine(bag, bag) == pytest.approx(1.0)

    def test_disjoint(self):
        assert bag_cosine({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_empty(self):
        assert bag_cosine({}, {"a": 1.0}) == 0.0

    def test_sublinear_tf(self):
        weights = sublinear_tf({"a": 1, "b": 10, "zero": 0})
        assert weights["a"] == pytest.approx(1.0)
        assert weights["b"] == pytest.approx(1.0 + np.log(10))
        assert "zero" not in weights

    def test_sublinear_tf_is_bitwise_one_plus_log(self):
        # Weights are memoised per distinct count; each must still be the
        # float a fresh 1 + log(count) gives, whatever type the count has.
        counts = [1, 2, 3, 7, 240, np.int64(3), 3.0, np.float32(3.0), 2.5]
        for count in counts * 2:
            weight = sublinear_tf({"t": count})["t"]
            assert weight == 1.0 + float(np.log(count))


class TestEnsemble:
    def test_weighted_average(self):
        def always_one(q, c):
            return 1.0

        def always_zero(q, c):
            return 0.0

        ensemble = EnsembleSimilarity([always_one, always_zero], weights=[3.0, 1.0])
        assert ensemble(None, None) == pytest.approx(0.75)

    def test_default_uniform_weights(self):
        ensemble = EnsembleSimilarity([lambda q, c: 0.2, lambda q, c: 0.8])
        assert ensemble(None, None) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSimilarity([])

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            EnsembleSimilarity([lambda q, c: 1.0], weights=[1.0, 2.0])

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            EnsembleSimilarity([lambda q, c: 1.0], weights=[-1.0])
