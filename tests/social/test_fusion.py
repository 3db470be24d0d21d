"""Tests for social fusion ranking."""

import numpy as np
import pytest

from repro.data import InformationItem
from repro.personalization import PersonalizedRanker, UserProfile
from repro.social import AffineNeighbour, SocialRanker
from repro.uncertainty import UncertainMatch, UncertainResultSet


def _item(latent, item_id):
    return InformationItem(item_id=item_id, domain="d", latent=np.asarray(latent, float))


def _match(latent, item_id, probability=0.5):
    return UncertainMatch(item=_item(latent, item_id), score=probability,
                          probability=probability)


def _personal_ranker(interests, alpha=0.5):
    profile = UserProfile(user_id="iris", interests=np.asarray(interests, float))
    return PersonalizedRanker(profile, concept_fn=lambda item: item.latent,
                              personalization_weight=alpha)


def _neighbour(user_id, interests, affinity_value):
    return AffineNeighbour(
        user_id=user_id,
        affinity=affinity_value,
        profile=UserProfile(user_id=user_id, interests=np.asarray(interests, float)),
    )


class TestSocialRanker:
    def test_no_neighbours_is_personal(self):
        personal = _personal_ranker([1.0, 0.0])
        social = SocialRanker(personal, [], social_weight=0.5)
        results = UncertainResultSet([_match([1, 0], "a"), _match([0, 1], "b")])
        assert social.rerank_items(results) == personal.rerank_items(results)

    def test_neighbours_shift_ranking(self):
        # Iris is indifferent; her high-affinity neighbour loves topic 1.
        personal = _personal_ranker([0.5, 0.5], alpha=0.5)
        neighbour = _neighbour("jason", [0.0, 1.0], affinity_value=1.0)
        social = SocialRanker(personal, [neighbour], social_weight=0.8)
        results = UncertainResultSet([
            _match([1.0, 0.0], "topic0"),
            _match([0.0, 1.0], "topic1"),
        ])
        assert social.rerank_items(results)[0].item_id == "topic1"

    def test_affinity_weights_votes(self):
        personal = _personal_ranker([0.5, 0.5], alpha=0.0)
        strong = _neighbour("strong", [0.0, 1.0], affinity_value=0.9)
        weak = _neighbour("weak", [1.0, 0.0], affinity_value=0.1)
        social = SocialRanker(personal, [strong, weak], social_weight=1.0)
        item1 = _item([0.0, 1.0], "i1")
        item0 = _item([1.0, 0.0], "i0")
        assert social.neighbourhood_interest(item1) > social.neighbourhood_interest(item0)

    def test_beta_zero_is_personal(self):
        personal = _personal_ranker([1.0, 0.0])
        neighbour = _neighbour("jason", [0.0, 1.0], affinity_value=1.0)
        social = SocialRanker(personal, [neighbour], social_weight=0.0)
        match = _match([0.0, 1.0], "x")
        assert social.item_score(match) == pytest.approx(personal.item_score(match))

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            SocialRanker(_personal_ranker([1, 0]), [], social_weight=1.5)
