"""Tests for conditional profiles."""

import numpy as np
import pytest

from repro.context import ActivationRule, ConditionalProfile, Context, ProfileOverlay
from repro.personalization import UserProfile


def _conditional():
    base = UserProfile(user_id="iris", interests=np.array([0.6, 0.2, 0.2]))
    conditional = ConditionalProfile(base)
    conditional.add_overlay(
        ActivationRule({"task": "leisure"}, name="leisure"),
        ProfileOverlay(
            interest_shift=np.array([0.0, 1.0, 0.0]),
            mode_preference={"query": 0.1, "browse": 0.8, "feed": 0.1},
        ),
    )
    conditional.add_overlay(
        ActivationRule({"task": "leisure", "location": "Paris"}, name="paris-leisure"),
        ProfileOverlay(negotiation_style="conceder"),
    )
    return conditional


class TestConditionalProfile:
    def test_static_base_without_matches(self):
        conditional = _conditional()
        active = conditional.active_profile(Context(task="paper-writing"))
        np.testing.assert_allclose(active.interests, conditional.base.interests)
        assert active.negotiation_style == "linear"

    def test_single_overlay_applied(self):
        conditional = _conditional()
        active = conditional.active_profile(Context(task="leisure", location="Athens"))
        assert np.argmax(active.interests) == 1
        assert active.mode_preference["browse"] == pytest.approx(0.8)
        assert active.negotiation_style == "linear"

    def test_stacked_overlays_most_specific_last(self):
        conditional = _conditional()
        active = conditional.active_profile(Context(task="leisure", location="Paris"))
        assert active.negotiation_style == "conceder"
        assert np.argmax(active.interests) == 1  # general overlay also applied

    def test_base_never_mutated(self):
        conditional = _conditional()
        before = conditional.base.interests.copy()
        conditional.active_profile(Context(task="leisure"))
        np.testing.assert_allclose(conditional.base.interests, before)
