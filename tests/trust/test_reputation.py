"""Tests for the beta reputation system."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trust import BetaReputation, ReputationSystem

outcomes = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), max_size=50
)


class TestBetaReputation:
    def test_neutral_prior(self):
        assert BetaReputation().score == 0.5

    def test_positive_evidence_raises_score(self):
        rep = BetaReputation()
        for __ in range(10):
            rep.observe(1.0)
        assert rep.score > 0.8

    def test_negative_evidence_lowers_score(self):
        rep = BetaReputation()
        for __ in range(10):
            rep.observe(0.0)
        assert rep.score < 0.2

    def test_invalid_outcome(self):
        with pytest.raises(ValueError):
            BetaReputation().observe(1.5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BetaReputation(alpha=0.0)
        with pytest.raises(ValueError):
            BetaReputation(decay=0.0)

    @given(outcomes)
    def test_score_always_bounded(self, values):
        rep = BetaReputation()
        for value in values:
            rep.observe(value)
        assert 0.0 < rep.score < 1.0

    def test_decay_lets_reformed_provider_recover(self):
        slow = BetaReputation(decay=1.0)
        fast = BetaReputation(decay=0.8)
        for rep in (slow, fast):
            for __ in range(20):
                rep.observe(0.0)
            for __ in range(20):
                rep.observe(1.0)
        assert fast.score > slow.score


class TestReputationSystem:
    def test_unknown_subject_neutral(self):
        assert ReputationSystem().score("nobody") == 0.5

    def test_observe_and_rank(self):
        system = ReputationSystem()
        for __ in range(5):
            system.observe("good", 1.0)
            system.observe("bad", 0.0)
        ranked = system.ranked()
        assert ranked[0][0] == "good"
        assert ranked[-1][0] == "bad"

    def test_ranked_subset(self):
        system = ReputationSystem()
        system.observe("a", 1.0)
        system.observe("b", 0.0)
        system.observe("c", 1.0)
        ranked = system.ranked(["a", "b"])
        assert [name for name, __ in ranked] == ["a", "b"]

    def test_ranked_ties_broken_by_name(self):
        system = ReputationSystem()
        ranked = system.ranked(["z", "a"])
        assert [name for name, __ in ranked] == ["a", "z"]

    def test_evidence_counts(self):
        system = ReputationSystem()
        assert system.evidence("x") == pytest.approx(0.0)
        system.observe("x", 1.0)
        assert system.evidence("x") > 0.0
