"""Tests for user profiles."""

import numpy as np
import pytest

from repro.personalization import UserProfile


def _profile(interests=None, **kwargs):
    if interests is None:
        interests = np.array([0.5, 0.3, 0.2])
    return UserProfile(user_id="iris", interests=interests, **kwargs)


class TestValidation:
    def test_interests_normalised(self):
        profile = _profile(np.array([2.0, 2.0, 0.0]))
        np.testing.assert_allclose(profile.interests, [0.5, 0.5, 0.0])

    def test_negative_interests_rejected(self):
        with pytest.raises(ValueError):
            _profile(np.array([0.5, -0.5, 1.0]))

    def test_zero_interests_rejected(self):
        with pytest.raises(ValueError):
            _profile(np.zeros(3))

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            _profile(negotiation_style="aggressive")

    def test_mode_preference_normalised(self):
        profile = _profile(mode_preference={"query": 2.0, "browse": 1.0, "feed": 1.0})
        assert profile.mode_preference["query"] == 0.5

    def test_incomplete_modes_rejected(self):
        with pytest.raises(ValueError):
            _profile(mode_preference={"query": 1.0})

    def test_negative_price_sensitivity_rejected(self):
        with pytest.raises(ValueError):
            _profile(price_sensitivity=-0.1)


class TestInterest:
    def test_interest_in_own_vector_is_one(self):
        profile = _profile()
        assert profile.interest_in(profile.interests) == pytest.approx(1.0)

    def test_orthogonal_interest_zero(self):
        profile = _profile(np.array([1.0, 0.0, 0.0]))
        assert profile.interest_in(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _profile().interest_in(np.ones(5))

    def test_similarity_symmetric(self):
        a = _profile(np.array([0.7, 0.2, 0.1]))
        b = UserProfile(user_id="jason", interests=np.array([0.1, 0.2, 0.7]))
        assert a.similarity(b) == pytest.approx(b.similarity(a))


class TestCopy:
    def test_copy_is_independent(self):
        profile = _profile()
        clone = profile.copy()
        clone.mode_preference["query"] = 0.0
        assert profile.mode_preference["query"] > 0

    def test_with_interests(self):
        profile = _profile()
        updated = profile.with_interests(np.array([1.0, 0.0, 0.0]))
        assert updated.interests[0] == 1.0
        assert profile.interests[0] == 0.5
