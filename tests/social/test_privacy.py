"""Tests for privacy policies."""

import pytest

from repro.social import (
    PrivacyPolicy,
    PrivacyRegistry,
    SocialGraph,
    Visibility,
)


@pytest.fixture
def graph():
    g = SocialGraph()
    g.befriend("iris", "jason")
    return g


class TestPolicy:
    def test_owner_always_sees_own(self, graph):
        policy = PrivacyPolicy("iris")
        assert policy.allows("history", "iris", graph)

    def test_friends_visibility(self, graph):
        policy = PrivacyPolicy("iris")
        assert policy.allows("interests", "jason", graph)
        assert not policy.allows("interests", "stranger", graph)

    def test_public_visibility(self, graph):
        policy = PrivacyPolicy("iris")
        policy.set_level("interests", Visibility.PUBLIC)
        assert policy.allows("interests", "stranger", graph)

    def test_private_blocks_friends(self, graph):
        policy = PrivacyPolicy("iris")
        policy.set_level("interests", Visibility.PRIVATE)
        assert not policy.allows("interests", "jason", graph)

    def test_unknown_part_rejected(self, graph):
        policy = PrivacyPolicy("iris")
        with pytest.raises(ValueError):
            policy.allows("shoe-size", "jason", graph)
        with pytest.raises(ValueError):
            policy.set_level("shoe-size", Visibility.PUBLIC)

    def test_unknown_part_in_constructor_rejected(self):
        with pytest.raises(ValueError):
            PrivacyPolicy("iris", levels={"shoe-size": Visibility.PUBLIC})

    def test_missing_parts_default_private(self):
        policy = PrivacyPolicy("iris", levels={"interests": Visibility.PUBLIC})
        assert policy.levels["history"] is Visibility.PRIVATE


class TestRegistry:
    def test_default_policy_conservative(self, graph):
        registry = PrivacyRegistry(graph)
        assert registry.can_see("jason", "iris", "interests")  # friends
        assert not registry.can_see("stranger", "iris", "interests")
        assert not registry.can_see("jason", "iris", "history")  # private

    def test_set_policy(self, graph):
        registry = PrivacyRegistry(graph)
        open_policy = PrivacyPolicy(
            "iris", levels={part: Visibility.PUBLIC for part in
                            ("interests", "qos_weights", "history", "queries")}
        )
        registry.set_policy(open_policy)
        assert registry.can_see("stranger", "iris", "history")
