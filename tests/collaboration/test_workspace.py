"""Tests for shared workspaces and threads."""

import numpy as np

from repro.collaboration import ExplorationThread, SharedWorkspace
from repro.data import InformationItem
from repro.uncertainty import UncertainMatch

from tests.conftest import make_topic_query


def _match(item_id, probability=0.5):
    item = InformationItem(item_id=item_id, domain="d", latent=np.array([1.0]))
    return UncertainMatch(item=item, score=probability, probability=probability)


class TestWorkspace:
    def test_contribute_counts_new(self):
        workspace = SharedWorkspace()
        added = workspace.contribute("iris", [_match("a"), _match("b")])
        assert added == 2
        assert len(workspace) == 2

    def test_duplicates_keep_discovery_credit(self):
        workspace = SharedWorkspace()
        workspace.contribute("iris", [_match("a", 0.5)], time=1.0)
        added = workspace.contribute("jason", [_match("a", 0.9)], time=2.0)
        assert added == 0
        (credited,) = workspace.contributions_by("iris")
        assert workspace.contributions_by("jason") == []
        # Confidence upgraded to the better evidence.
        assert credited.match.probability == 0.9

    def test_lower_confidence_duplicate_ignored(self):
        workspace = SharedWorkspace()
        workspace.contribute("iris", [_match("a", 0.9)])
        workspace.contribute("jason", [_match("a", 0.1)])
        assert workspace.contributions()[0].match.probability == 0.9

    def test_contributions_by_user(self):
        workspace = SharedWorkspace()
        workspace.contribute("iris", [_match("a")])
        workspace.contribute("jason", [_match("b"), _match("c")])
        assert len(workspace.contributions_by("jason")) == 2

    def test_membership(self):
        workspace = SharedWorkspace()
        workspace.contribute("iris", [_match("a")])
        assert "a" in workspace
        assert "z" not in workspace

    def test_items_in_discovery_order(self):
        workspace = SharedWorkspace()
        workspace.contribute("iris", [_match("z", 0.2)])
        workspace.contribute("iris", [_match("a", 0.9)])
        assert [i.item_id for i in workspace.items()] == ["z", "a"]


class TestThreads:
    def test_thread_lineage(self, topic_space, vocabulary):
        thread = ExplorationThread(owner_id="iris")
        q1 = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        q2 = make_topic_query(topic_space, vocabulary, "dance-forms")
        thread.extend(q1)
        thread.extend(q2)
        assert thread.last_query is q2
        assert len(thread.steps) == 2

    def test_pick_up_records_takeover(self, topic_space, vocabulary):
        thread = ExplorationThread(owner_id="iris")
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        thread.extend(query)
        continued = thread.pick_up("jason")
        assert continued is query
        assert thread.taken_over_by == ["jason"]

    def test_owner_pickup_not_recorded(self, topic_space, vocabulary):
        thread = ExplorationThread(owner_id="iris")
        thread.extend(make_topic_query(topic_space, vocabulary, "folk-jewelry"))
        thread.pick_up("iris")
        assert thread.taken_over_by == []

    def test_empty_thread_pickup(self):
        thread = ExplorationThread(owner_id="iris")
        assert thread.pick_up("jason") is None
