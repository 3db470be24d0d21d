"""Tests for socialized trust."""

import numpy as np
import pytest

from repro.personalization import UserProfile
from repro.social import AffineNeighbour, SocialTrustView
from repro.trust import ReputationSystem


def _neighbour(user_id, affinity):
    return AffineNeighbour(
        user_id=user_id, affinity=affinity,
        profile=UserProfile(user_id=user_id, interests=np.array([1.0])),
    )


def _system(observations):
    system = ReputationSystem()
    for subject, outcomes in observations.items():
        for outcome in outcomes:
            system.observe(subject, outcome)
    return system


class TestSocialTrustView:
    def test_no_evidence_anywhere_neutral(self):
        view = SocialTrustView(ReputationSystem(), {}, [])
        assert view.score("unknown") == 0.5

    def test_own_evidence_dominates_when_alone(self):
        own = _system({"src": [1.0] * 10})
        view = SocialTrustView(own, {}, [])
        assert view.score("src") == pytest.approx(own.score("src"))

    def test_borrows_neighbour_experience_for_unknowns(self):
        own = ReputationSystem()  # no first-hand data
        friend_system = _system({"src": [0.0] * 10})  # friend got burned
        view = SocialTrustView(
            own, {"friend": friend_system}, [_neighbour("friend", 0.9)],
        )
        assert view.score("src") < 0.35

    def test_affinity_weights_conflicting_opinions(self):
        own = ReputationSystem()
        lover = _system({"src": [1.0] * 10})
        hater = _system({"src": [0.0] * 10})
        close_friend_loves = SocialTrustView(
            own,
            {"close": lover, "distant": hater},
            [_neighbour("close", 0.9), _neighbour("distant", 0.1)],
        )
        close_friend_hates = SocialTrustView(
            own,
            {"close": hater, "distant": lover},
            [_neighbour("close", 0.9), _neighbour("distant", 0.1)],
        )
        assert close_friend_loves.score("src") > 0.5
        assert close_friend_hates.score("src") < 0.5

    def test_first_hand_evidence_outweighs_hearsay(self):
        own = _system({"src": [1.0] * 30})  # lots of good experience
        skeptic = _system({"src": [0.0, 0.0]})  # two bad anecdotes
        view = SocialTrustView(
            own, {"skeptic": skeptic}, [_neighbour("skeptic", 0.5)],
        )
        assert view.score("src") > 0.7

    def test_opinions_listed_with_evidence(self):
        own = ReputationSystem()
        friend = _system({"a": [1.0], "b": [0.5]})
        view = SocialTrustView(own, {"f": friend}, [_neighbour("f", 0.8)])
        opinions = view.opinions("a")
        assert len(opinions) == 1
        assert opinions[0].neighbour_id == "f"
        assert opinions[0].affinity == 0.8
        assert view.opinions("unseen") == []

    def test_neighbour_without_shared_system_ignored(self):
        own = ReputationSystem()
        view = SocialTrustView(own, {}, [_neighbour("private-friend", 0.9)])
        assert view.score("src") == 0.5
