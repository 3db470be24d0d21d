"""Tests for the Iris scenario assembly."""

import pytest

from repro import build_agora
from repro.workloads import build_iris_scenario

from tests.conftest import peak_topic


@pytest.fixture(scope="module")
def scenario():
    agora = build_agora(seed=31, n_sources=5, items_per_source=20,
                        calibration_pairs=200)
    return build_iris_scenario(agora)


class TestScenario:
    def test_profiles_match_paper(self, scenario):
        iris = scenario.iris.active_profile()
        jason = scenario.jason.active_profile()
        space = scenario.agora.topic_space
        assert peak_topic(space, iris.interests) == "folk-jewelry"
        assert peak_topic(space, jason.interests) == "dance-forms"
        assert iris.risk.name == "averse"
        assert jason.negotiation_style == "conceder"

    def test_friendship_wired(self, scenario):
        assert scenario.social_graph.are_friends("iris", "jason")

    def test_profiles_stored(self, scenario):
        assert "iris" in scenario.profile_store
        assert "jason" in scenario.profile_store

    def test_privacy_defaults(self, scenario):
        assert scenario.privacy.can_see("jason", "iris", "interests")
        assert not scenario.privacy.can_see("jason", "iris", "history")

    def test_personal_base(self, scenario):
        items = scenario.agora.sources[
            sorted(scenario.agora.sources)[0]
        ].visible_items(now=0.0)
        base = scenario.personal_base
        base.save(items[0])
        assert [item.item_id for item in base.visible_items(0.0)] == [items[0].item_id]
        assert base.owner_id == "iris"
        assert base.has_access("jason")
        assert not base.has_access("stranger")

    def test_iris_can_shop(self, scenario):
        query = scenario.workload.topic_query("folk-jewelry", k=5, issuer_id="iris")
        result = scenario.iris.ask(query)
        assert len(result.ranked_items) > 0

    def test_annotation_triggers_comparison(self, scenario):
        items = scenario.personal_base.visible_items(0.0) or scenario.agora.sources[
            sorted(scenario.agora.sources)[0]
        ].visible_items(now=0.0)
        record = scenario.annotations.annotate("iris", items[0], text="note")
        assert record.standing is not None
