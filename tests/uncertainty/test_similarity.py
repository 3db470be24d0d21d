"""Tests for similarity primitives."""

import numpy as np
import pytest

from repro.uncertainty import bag_cosine, nonnegative_cosine, sublinear_tf


class TestCosine:
    def test_nonnegative_cosine_bounds(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.5, 0.5])
        assert 0.0 <= nonnegative_cosine(a, b) <= 1.0


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
