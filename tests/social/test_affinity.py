"""Tests for affinity computation."""

import numpy as np
import pytest

from repro.personalization import ProfileStore, UserProfile
from repro.social import (
    AffinityIndex,
    PrivacyPolicy,
    PrivacyRegistry,
    SocialGraph,
    Visibility,
    affinity,
)


def _profile(user_id, interests):
    return UserProfile(user_id=user_id, interests=np.asarray(interests, float))


@pytest.fixture
def world():
    graph = SocialGraph()
    graph.befriend("iris", "jason")  # "twin" shares iris's interests, no tie
    store = ProfileStore()
    store.save(_profile("iris", [0.8, 0.2]))
    store.save(_profile("jason", [0.2, 0.8]))
    store.save(_profile("twin", [0.8, 0.2]))
    store.save(_profile("stranger", [0.0, 1.0]))
    return graph, store


class TestAffinityFunction:
    def test_bounds(self, world):
        graph, store = world
        value = affinity(store.load("iris"), store.load("jason"), graph)
        assert 0.0 <= value <= 1.0

    def test_blend_weights(self, world):
        graph, store = world
        iris = store.load("iris")
        twin = store.load("twin")
        jason = store.load("jason")
        interest_only = affinity(iris, twin, graph, interest_weight=1.0)
        social_only = affinity(iris, jason, graph, interest_weight=0.0)
        assert interest_only == pytest.approx(1.0)
        assert social_only == pytest.approx(0.5)  # proximity 1/(1+1)

    def test_invalid_weight(self, world):
        graph, store = world
        with pytest.raises(ValueError):
            affinity(store.load("iris"), store.load("jason"), graph, interest_weight=2.0)


class TestAffinityIndex:
    def test_neighbourhood_ranked(self, world):
        graph, store = world
        index = AffinityIndex(store, graph)
        neighbours = index.neighbourhood(store.load("iris"), k=3)
        assert neighbours[0].user_id == "twin"  # highest blended affinity
        assert all(
            a.affinity >= b.affinity for a, b in zip(neighbours, neighbours[1:])
        )

    def test_self_excluded(self, world):
        graph, store = world
        index = AffinityIndex(store, graph)
        neighbours = index.neighbourhood(store.load("iris"), k=10)
        assert all(n.user_id != "iris" for n in neighbours)

    def test_min_affinity_filters(self, world):
        graph, store = world
        index = AffinityIndex(store, graph)
        neighbours = index.neighbourhood(store.load("iris"), k=10, min_affinity=0.9)
        assert all(n.affinity >= 0.9 for n in neighbours)

    def test_privacy_filters_neighbours(self, world):
        graph, store = world
        privacy = PrivacyRegistry(graph)
        # Default policy: interests visible to friends only.
        index = AffinityIndex(store, graph, privacy=privacy)
        neighbours = index.neighbourhood(store.load("iris"), k=10)
        assert [n.user_id for n in neighbours] == ["jason"]

    def test_public_interests_visible_to_all(self, world):
        graph, store = world
        privacy = PrivacyRegistry(graph)
        open_policy = PrivacyPolicy(
            "twin", levels={"interests": Visibility.PUBLIC}
        )
        privacy.set_policy(open_policy)
        index = AffinityIndex(store, graph, privacy=privacy)
        neighbours = index.neighbourhood(store.load("iris"), k=10)
        assert {n.user_id for n in neighbours} == {"jason", "twin"}

    def test_invalid_params(self, world):
        graph, store = world
        index = AffinityIndex(store, graph)
        with pytest.raises(ValueError):
            index.neighbourhood(store.load("iris"), k=0)
        with pytest.raises(ValueError):
            index.neighbourhood(store.load("iris"), min_affinity=1.5)
