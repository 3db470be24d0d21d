"""Tests for collaboration sessions."""

import numpy as np
import pytest

from repro.collaboration import CollaborationSession
from repro.data import InformationItem
from repro.personalization import UserProfile
from repro.uncertainty import UncertainMatch, UncertainResultSet

from tests.conftest import make_topic_query


def _profile(user_id, interests=None):
    return UserProfile(
        user_id=user_id,
        interests=interests if interests is not None else np.ones(10),
    )


def _results(item_ids, latent=None):
    matches = []
    for item_id in item_ids:
        item = InformationItem(
            item_id=item_id, domain="d",
            latent=latent if latent is not None else np.ones(10) / 10,
        )
        matches.append(UncertainMatch(item=item, score=0.8, probability=0.8))
    return UncertainResultSet(matches)


@pytest.fixture
def session(topic_space):
    session = CollaborationSession(goal_latent=topic_space.basis("folk-jewelry", 0.9))
    session.add_member(_profile("iris"))
    session.add_member(_profile("jason"))
    return session


class TestMembership:
    def test_members_listed(self, session):
        assert session.member_ids() == ["iris", "jason"]

    def test_duplicate_member_rejected(self, session):
        with pytest.raises(ValueError):
            session.add_member(_profile("iris"))

    def test_non_member_cannot_contribute(self, session):
        with pytest.raises(KeyError):
            session.record_results("stranger", _results(["a"]))


class TestCoverage:
    def test_results_pool_in_workspace(self, session):
        session.record_results("iris", _results(["a", "b"]))
        session.record_results("jason", _results(["b", "c"]))
        assert len(session.workspace) == 3
        assert session.contribution_balance() == {"iris": 2, "jason": 1}

    def test_group_coverage(self, session, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        relevant_latent = query.intent_latent
        session.record_results("iris", _results(["r1"], latent=relevant_latent))
        session.record_results("jason", _results(["r2"], latent=relevant_latent))
        session.record_results(
            "jason",
            _results(["junk"], latent=topic_space.basis("tourism", 1.0)),
        )
        coverage = session.group_coverage(oracle, query, reachable_relevant=4)
        assert coverage == pytest.approx(0.5)

    def test_coverage_with_nothing_reachable(self, session, oracle, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        assert session.group_coverage(oracle, query, reachable_relevant=0) == 1.0
