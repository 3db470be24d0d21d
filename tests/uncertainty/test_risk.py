"""Tests for risk profiles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.uncertainty import RiskProfile, risk_averse, risk_neutral, risk_seeking

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

COIN = ([0.0, 1.0], [0.5, 0.5])


class TestUtility:
    def test_neutral_is_identity(self):
        profile = risk_neutral()
        for x in (0.0, 0.3, 1.0):
            assert profile.utility(x) == pytest.approx(x)

    def test_endpoints_fixed(self):
        for profile in (risk_averse(), risk_neutral(), risk_seeking()):
            assert profile.utility(0.0) == pytest.approx(0.0)
            assert profile.utility(1.0) == pytest.approx(1.0)

    def test_averse_is_concave(self):
        profile = risk_averse()
        assert profile.utility(0.5) > 0.5

    def test_seeking_is_convex(self):
        profile = risk_seeking()
        assert profile.utility(0.5) < 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            risk_neutral().utility(1.5)

    def test_extreme_aversion_rejected(self):
        with pytest.raises(ValueError):
            RiskProfile(aversion=100.0)

    @given(unit)
    def test_inverse_utility_roundtrip(self, x):
        for profile in (risk_averse(2.0), risk_neutral(), risk_seeking(2.0)):
            assert profile.inverse_utility(profile.utility(x)) == pytest.approx(x, abs=1e-6)


class TestLotteries:
    def test_neutral_ce_is_expected_value(self):
        assert risk_neutral().certainty_equivalent(*COIN) == pytest.approx(0.5)

    def test_averse_ce_below_expected_value(self):
        assert risk_averse().certainty_equivalent(*COIN) < 0.5

    def test_seeking_ce_above_expected_value(self):
        assert risk_seeking().certainty_equivalent(*COIN) > 0.5

    def test_degenerate_lottery(self):
        assert risk_averse().certainty_equivalent([0.7], [1.0]) == pytest.approx(0.7)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            risk_neutral().expected_utility([0.5, 0.6], [0.5, 0.6])

    def test_empty_lottery_rejected(self):
        with pytest.raises(ValueError):
            risk_neutral().expected_utility([], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            risk_neutral().expected_utility([0.5], [0.5, 0.5])


class TestPresets:
    def test_invalid_presets(self):
        with pytest.raises(ValueError):
            risk_averse(0.0)
        with pytest.raises(ValueError):
            risk_seeking(-1.0)

    def test_names(self):
        assert risk_averse().name == "averse"
        assert risk_neutral().name == "neutral"
        assert risk_seeking().name == "seeking"

    def test_more_averse_means_lower_ce(self):
        mild = risk_averse(1.0).certainty_equivalent(*COIN)
        strong = risk_averse(8.0).certainty_equivalent(*COIN)
        assert strong < mild
