"""Acceptance test: the paper's §1 scenario, step by step.

"Iris is a young researcher who is investigating the different styles of
folk jewelry that have been worn across Europe through the times. ...
She uses automatic feeds of history and tourism magazine articles on new
exhibitions and collections, as well as auction catalogs ... These arrive
at her office as multimedia documents and are often annotated by her.
She stores documents and other objects of high interest as well as her
annotations in a personal information base that she maintains, which she
also shares with Jason, a colleague in a different institution who is
working on traditional dance forms."

Every sentence of that paragraph maps to an assertion below.
"""

import pytest

from repro import QoSRequirement, build_agora
from repro.sources import PERSONAL_DOMAIN, PersonalInformationBase
from repro.workloads import build_iris_scenario


@pytest.fixture(scope="module")
def world():
    agora = build_agora(seed=2007, n_sources=10, items_per_source=40,
                        calibration_pairs=300)
    scenario = build_iris_scenario(agora)
    return agora, scenario


class TestPaperScenario:
    def test_iris_researches_folk_jewelry_across_repositories(self, world):
        """'...accesses repositories on holdings of many museums,
        government properties, and regional cultural organizations.'"""
        agora, scenario = world
        query = scenario.workload.topic_query(
            "folk-jewelry", k=10, issuer_id="iris",
            requirement=QoSRequirement(min_completeness=0.1),
            target_domains=("museum", "auction", "cultural-org"),
        )
        result = scenario.iris.ask(query)
        assert result.ranked_items
        # Material really does come from multiple repository kinds.
        domains_used = {c.provider_id.rsplit("-src-", 1)[0]
                        for c in result.contracts}
        assert len(domains_used) >= 2

    def test_automatic_feeds_deliver_new_material(self, world):
        """'She uses automatic feeds of ... magazine articles ... as well
        as auction catalogs.'"""
        agora, scenario = world
        standing_id = scenario.iris.subscribe(
            scenario.workload.topic_query(
                "folk-jewelry", k=10, issuer_id="iris",
                target_domains=("auction", "magazine"),
            ),
            threshold=0.25,
        )
        agora.start_feeds()
        agora.run(until=agora.now + 80.0)
        hits = scenario.iris.feed_inbox()
        assert standing_id >= 0
        assert agora.feeds.items_screened > 0
        assert all(
            hit.match.item.domain in ("auction", "magazine") for hit in hits
        )

    def test_items_are_annotated_and_stored_in_personal_base(self, world):
        """'These ... are often annotated by her.  She stores documents
        and other objects of high interest as well as her annotations in
        a personal information base.'"""
        agora, scenario = world
        query = scenario.workload.topic_query(
            "folk-jewelry", k=5, issuer_id="iris",
        )
        result = scenario.iris.ask(query)
        base = PersonalInformationBase(
            "iris", agora.engine, agora.sim.rng.spawn("scenario-pib"),
        )
        for item in result.ranked_items[:3]:
            record = scenario.annotations.annotate(
                "iris", item, text="for the comparative study",
            )
            base.save(item, now=agora.now)
            base.save(record.annotation, now=agora.now)
        assert len(base.visible_items(float("inf"))) == 6
        assert len(base.annotations(now=agora.now)) == 3

    def test_base_is_shared_with_jason_only(self, world):
        """'...which she also shares with Jason, a colleague in a
        different institution.'"""
        agora, scenario = world
        base = PersonalInformationBase(
            "iris", agora.engine, agora.sim.rng.spawn("scenario-pib2"),
        )
        query = scenario.workload.topic_query(
            "folk-jewelry", k=5, issuer_id="iris",
        )
        result = scenario.iris.ask(query)
        base.save_all(result.ranked_items[:3], now=agora.now)
        base.share_with("jason")
        subquery = scenario.workload.topic_query(
            "folk-jewelry", k=3, issuer_id="jason",
        ).restricted_to(PERSONAL_DOMAIN)
        jason_answer = base.answer(subquery, now=agora.now, consumer_id="jason")
        stranger_answer = base.answer(subquery, now=agora.now,
                                      consumer_id="some-stranger")
        assert not jason_answer.declined
        assert len(jason_answer.matches) > 0
        assert stranger_answer.declined

    def test_jason_works_on_dance_forms(self, world):
        """'...who is working on traditional dance forms.'"""
        agora, scenario = world
        query = scenario.workload.topic_query(
            "dance-forms", k=8, issuer_id="jason",
        )
        result = scenario.jason.ask(query)
        assert result.ranked_items
        relevant = sum(
            1 for item in result.ranked_items
            if agora.oracle.relevance(query, item) > 0.5
        )
        assert relevant > 0

    def test_friendship_enables_social_machinery(self, world):
        """Iris and Jason are friends; privacy honours that tie."""
        agora, scenario = world
        assert scenario.social_graph.are_friends("iris", "jason")
        assert scenario.privacy.can_see("jason", "iris", "interests")
        assert not scenario.privacy.can_see("nobody", "iris", "interests")
