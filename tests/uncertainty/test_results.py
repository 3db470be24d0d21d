"""Tests for uncertain result sets."""

import numpy as np
import pytest

from repro.data import InformationItem
from repro.uncertainty import UncertainMatch, UncertainResultSet


def _item(item_id):
    return InformationItem(item_id=item_id, domain="d", latent=np.array([1.0]))


def _match(item_id, probability, score=None, source="s1"):
    return UncertainMatch(
        item=_item(item_id),
        score=score if score is not None else probability,
        probability=probability,
        source_id=source,
    )


class TestMatch:
    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            _match("a", 1.5)

    def test_invalid_score(self):
        with pytest.raises(ValueError):
            UncertainMatch(item=_item("a"), score=2.0, probability=0.5)


class TestResultSet:
    def test_sorted_by_probability(self):
        results = UncertainResultSet([_match("a", 0.3), _match("b", 0.9)])
        assert [m.item.item_id for m in results] == ["b", "a"]

    def test_ties_broken_by_item_id(self):
        results = UncertainResultSet([_match("z", 0.5), _match("a", 0.5)])
        assert [m.item.item_id for m in results] == ["a", "z"]

    def test_top_k(self):
        results = UncertainResultSet([_match(f"i{j}", j / 10) for j in range(1, 6)])
        top = results.top_k(2)
        assert len(top) == 2
        assert top.matches[0].probability == 0.5

    def test_top_k_negative_rejected(self):
        with pytest.raises(ValueError):
            UncertainResultSet().top_k(-1)


class TestMerge:
    def test_merge_disjoint(self):
        a = UncertainResultSet([_match("x", 0.5)])
        b = UncertainResultSet([_match("y", 0.7)])
        merged = a.merge(b)
        assert len(merged) == 2

    def test_merge_keeps_higher_probability(self):
        a = UncertainResultSet([_match("x", 0.5, source="s1")])
        b = UncertainResultSet([_match("x", 0.9, source="s2")])
        merged = a.merge(b)
        assert len(merged) == 1
        assert merged.matches[0].probability == 0.9
        assert merged.matches[0].source_id == "s2"
