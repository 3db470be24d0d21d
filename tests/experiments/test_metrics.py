"""Tests for experiment metrics helpers."""

import numpy as np
import pytest

from repro.experiments import ndcg, summarize, win_rate


class TestSummarize:
    def test_empty(self):
        summary = summarize([])
        assert summary.mean == 0.0
        assert summary.n == 0

    def test_single_value(self):
        summary = summarize([3.0])
        assert summary.mean == 3.0
        assert summary.ci == 0.0

    def test_mean_and_ci(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.ci > 0
        assert summary.n == 3

    def test_tighter_ci_with_more_data(self):
        narrow = summarize([1.0, 2.0] * 50)
        wide = summarize([1.0, 2.0])
        assert narrow.ci < wide.ci


class TestWinRate:
    def test_all_wins(self):
        assert win_rate([2, 3], [1, 1]) == 1.0

    def test_ties_not_wins(self):
        assert win_rate([1, 1], [1, 1]) == 0.0

    def test_mixed(self):
        assert win_rate([2, 0, 3, 0], [1, 1, 1, 1]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            win_rate([1], [1, 2])

    def test_empty(self):
        assert win_rate([], []) == 0.0


class TestNdcg:
    def test_empty_gains(self):
        assert ndcg([]) == 0.0

    def test_zero_ideal(self):
        assert ndcg([0.0, 0.0, 0.0]) == 0.0

    def test_ideal_order_scores_one(self):
        assert ndcg([3.0, 2.0, 1.0]) == pytest.approx(1.0)

    def test_k_shorter_than_gains(self):
        # The top 2 of [1, 3, 2] against the ideal top 2, [3, 2].
        dcg = 1.0 + 3.0 / np.log2(3)
        ideal = 3.0 + 2.0 / np.log2(3)
        assert ndcg([1.0, 3.0, 2.0], k=2) == pytest.approx(dcg / ideal)
        assert ndcg([1.0, 3.0, 2.0], k=0) == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            ndcg([1.0], k=-1)
