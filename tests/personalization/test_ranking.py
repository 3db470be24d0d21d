"""Tests for personalized ranking."""

import numpy as np
import pytest

from repro.data import InformationItem
from repro.personalization import PersonalizedRanker, UserProfile
from repro.uncertainty import UncertainMatch, UncertainResultSet


def _item(latent, item_id):
    return InformationItem(item_id=item_id, domain="d", latent=np.asarray(latent, float))


def _match(latent, item_id, probability):
    return UncertainMatch(
        item=_item(latent, item_id), score=probability, probability=probability,
    )


@pytest.fixture
def results():
    return UncertainResultSet([
        _match([1.0, 0.0], "on-topic-lowprob", 0.5),
        _match([0.0, 1.0], "off-topic-highprob", 0.7),
    ])


def _ranker(alpha):
    profile = UserProfile(user_id="iris", interests=np.array([1.0, 0.0]))
    return PersonalizedRanker(profile, concept_fn=lambda item: item.latent,
                              personalization_weight=alpha)


class TestRanker:
    def test_alpha_zero_matches_generic(self, results):
        ranker = _ranker(alpha=0.0)
        assert ranker.rerank_items(results) == results.items()

    def test_high_alpha_prefers_interests(self, results):
        ranker = _ranker(alpha=0.9)
        top = ranker.rerank_items(results)[0]
        assert top.item_id == "on-topic-lowprob"

    def test_generic_prefers_probability(self, results):
        assert results.items()[0].item_id == "off-topic-highprob"

    def test_item_score_blend(self, results):
        ranker = _ranker(alpha=0.5)
        match = results.matches[1]  # on-topic-lowprob (prob 0.5, interest 1.0)
        assert match.item.item_id == "on-topic-lowprob"
        assert ranker.item_score(match) == pytest.approx(0.75)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            _ranker(alpha=1.5)

    def test_deterministic_tiebreak(self):
        results = UncertainResultSet([
            _match([1.0, 0.0], "b", 0.5),
            _match([1.0, 0.0], "a", 0.5),
        ])
        ranked = _ranker(alpha=0.5).rerank_items(results)
        assert [i.item_id for i in ranked] == ["a", "b"]
