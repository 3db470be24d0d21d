"""Tests for the consumer agent (integration of the full ask() loop)."""

import pytest

from repro import Consumer, QoSRequirement, build_agora
from repro.context import ActivationRule, ConditionalProfile, Context, ProfileOverlay
from repro.personalization import UserProfile
from repro.workloads import QueryWorkloadGenerator


@pytest.fixture(scope="module")
def agora():
    return build_agora(seed=21, n_sources=6, items_per_source=30,
                       calibration_pairs=300)


@pytest.fixture(scope="module")
def workload(agora):
    return QueryWorkloadGenerator(
        agora.topic_space, agora.vocabulary,
        agora.sim.rng.spawn("test-workload"), corpus=agora.corpus,
    )


def _settled(agora):
    """Contracts the agora's monitor has settled so far."""
    return sum(agora.monitor.ledger(source_id).contracts for source_id in agora.sources)


def _profile(agora, user_id="iris", topic="folk-jewelry"):
    return UserProfile(
        user_id=user_id,
        interests=agora.topic_space.basis(topic, weight=0.9),
    )


class TestAskTrading:
    def test_full_loop_returns_results(self, agora, workload):
        consumer = Consumer(agora, _profile(agora), planner="trading")
        query = workload.topic_query("folk-jewelry", k=8,
                                     requirement=QoSRequirement(min_completeness=0.1))
        result = consumer.ask(query)
        assert len(result.ranked_items) > 0
        assert result.response_time > 0
        assert result.total_price > 0
        assert len(result.contracts) >= 1
        assert len(result.settlements) == len(result.contracts)

    def test_contracts_settled_into_monitor(self, agora, workload):
        before = _settled(agora)
        consumer = Consumer(agora, _profile(agora, "buyer2"), planner="trading")
        query = workload.topic_query("dance-forms", k=5)
        result = consumer.ask(query)
        assert _settled(agora) == before + len(result.contracts)

    def test_reputation_learned_from_outcomes(self, agora, workload):
        consumer = Consumer(agora, _profile(agora, "buyer3"), planner="trading")
        for __ in range(3):
            consumer.ask(workload.topic_query("folk-jewelry", k=5))
        assert len(consumer.reputation.ranked()) > 0

    def test_history_recorded(self, agora, workload):
        consumer = Consumer(agora, _profile(agora, "buyer4"))
        consumer.ask(workload.topic_query("tourism", k=5))
        consumer.ask(workload.topic_query("tourism", k=5))
        assert len(consumer.history) == 2

    def test_utility_bounded(self, agora, workload):
        consumer = Consumer(agora, _profile(agora, "buyer5"))
        result = consumer.ask(workload.topic_query("folk-jewelry", k=5))
        assert 0.0 <= result.utility <= 1.0


class TestPlannerChoice:
    def test_unknown_planner_rejected(self, agora):
        with pytest.raises(ValueError, match="planner"):
            Consumer(agora, _profile(agora, "magician"), planner="magic")


class TestAskSearchPlanners:
    @pytest.mark.parametrize("planner", ["greedy", "local", "exhaustive"])
    def test_search_planners_work(self, agora, workload, planner):
        consumer = Consumer(agora, _profile(agora, f"user-{planner}"), planner=planner)
        query = workload.topic_query("folk-jewelry", k=5)
        result = consumer.ask(query)
        assert len(result.ranked_items) > 0
        assert result.contracts == []  # search planners don't sign SLAs

    def test_impossible_requirement_unserved(self, agora, workload):
        consumer = Consumer(agora, _profile(agora, "strict"), planner="trading")
        query = workload.topic_query(
            "folk-jewelry", k=5,
            requirement=QoSRequirement(min_completeness=0.999, min_correctness=0.999,
                                       max_response_time=1e-9, min_trust=0.999),
        )
        # With risk-aware bidders most jobs go unserved; those that are
        # served will mostly breach and pay compensation.
        result = consumer.ask(query)
        assert result.unserved_jobs or result.breached_contracts > 0


class TestPersonalizationIntegration:
    def test_personalized_ranking_prefers_interests(self, agora, workload):
        jewelry_fan = Consumer(
            agora, _profile(agora, "fan", "folk-jewelry"),
            personalization_weight=0.9,
        )
        query = workload.topic_query("regional-history", k=10)
        personalized = jewelry_fan.ask(query, personalize=True)
        generic = jewelry_fan.ask(query, personalize=False)
        assert len(personalized.ranked_items) == len(generic.ranked_items)

    def test_conditional_profile_activation(self, agora, workload):
        base = _profile(agora, "ctx-user", "folk-jewelry")
        conditional = ConditionalProfile(base)
        leisure_shift = agora.topic_space.basis("tourism", weight=1.0)
        conditional.add_overlay(
            ActivationRule({"task": "leisure"}),
            ProfileOverlay(interest_shift=2.0 * leisure_shift),
        )
        consumer = Consumer(agora, conditional)
        work_profile = consumer.active_profile(Context(task="deep-research"))
        leisure_profile = consumer.active_profile(Context(task="leisure"))
        tourism_index = agora.topic_space.names.index("tourism")
        assert leisure_profile.interests[tourism_index] > work_profile.interests[tourism_index]

    def test_socialized_trust_view_steers_planning(self, agora, workload):
        from repro.social import AffineNeighbour, SocialTrustView
        from repro.trust import ReputationSystem

        profile = _profile(agora, "social-shopper", "folk-jewelry")
        # A close friend had terrible experiences with every museum source.
        friend_reputation = ReputationSystem()
        museum_sources = [
            s for s in agora.sources if s.startswith("museum")
        ]
        for source_id in museum_sources:
            for __ in range(10):
                friend_reputation.observe(source_id, 0.0)

        friend = AffineNeighbour(
            "friend", 0.9,
            UserProfile(user_id="friend",
                        interests=agora.topic_space.basis("folk-jewelry", 0.9)),
        )
        consumer = Consumer(
            agora, profile, planner="greedy",
            trust_view=SocialTrustView(
                ReputationSystem(), {"friend": friend_reputation}, [friend],
            ),
        )
        for source_id in museum_sources:
            assert consumer.trust_in(source_id) < 0.3
        result = consumer.ask(workload.topic_query("folk-jewelry", k=5))
        # The socialized trust view also annotates delivered QoS.
        assert result.delivered.trust < 0.7

    def test_subscribe_and_feed_inbox(self, agora, workload):
        consumer = Consumer(agora, _profile(agora, "feedfan", "fashion-trends"))
        query = workload.topic_query("fashion-trends", k=5, issuer_id="feedfan")
        standing_id = consumer.subscribe(query, threshold=0.2)
        assert standing_id >= 0
        agora.start_feeds()
        agora.run(until=agora.now + 40.0)
        hits = consumer.feed_inbox()
        # Magazine sources publish fashion items frequently at rate 0.3.
        assert isinstance(hits, list)
