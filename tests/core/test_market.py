"""Tests for the asynchronous (message-driven) marketplace."""

import pytest

from repro import Consumer, QoSRequirement, QoSWeights, UserProfile, build_agora
from repro.core import AsyncMarketplace
from repro.query import ExecutionContext, QueryExecutor
from repro.workloads import QueryWorkloadGenerator


@pytest.fixture
def market_setup():
    agora = build_agora(seed=33, n_sources=6, items_per_source=25,
                        calibration_pairs=200)
    workload = QueryWorkloadGenerator(
        agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("am"),
    )
    marketplace = AsyncMarketplace(agora)
    return agora, workload, marketplace


def _query(workload, **kwargs):
    defaults = dict(k=6, issuer_id="iris",
                    requirement=QoSRequirement(min_completeness=0.1))
    defaults.update(kwargs)
    return workload.topic_query("folk-jewelry", **defaults)


class TestAsyncNegotiation:
    def test_callback_fires_with_full_plan(self, market_setup):
        agora, workload, marketplace = market_setup
        outcomes = []
        marketplace.negotiate(_query(workload), QoSWeights(), outcomes.append)
        assert outcomes == []  # nothing before virtual time advances
        agora.run(until=agora.now + 10.0)
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.plan is not None and not outcome.unserved_jobs
        assert len(outcome.contracts) == 5  # one per domain
        assert marketplace.bids_received >= 5

    def test_bids_travel_over_the_network(self, market_setup):
        agora, workload, marketplace = market_setup
        before = agora.sim.trace.counter("net.messages_sent")
        marketplace.negotiate(_query(workload), QoSWeights(), lambda o: None)
        agora.run(until=agora.now + 10.0)
        sent = agora.sim.trace.counter("net.messages_sent") - before
        # CFPs out + proposals back + awards: strictly more than job count.
        assert sent > 10

    def test_negotiated_plan_executes(self, market_setup):
        agora, workload, marketplace = market_setup
        outcomes = []
        query = _query(workload)
        marketplace.negotiate(query, QoSWeights(), outcomes.append)
        agora.run(until=agora.now + 10.0)
        context = ExecutionContext(
            registry=agora.registry, oracle=agora.oracle,
            now=agora.now, consumer_id="iris",
        )
        result = QueryExecutor(context).execute(outcomes[0].plan, query)
        assert len(result.results) > 0

    def test_tight_deadline_misses_bids(self, market_setup):
        agora, workload, marketplace = market_setup
        outcomes = []
        # Deadline shorter than network latency + thinking time: most bids
        # arrive late and the jobs go unserved.
        marketplace.negotiate(
            _query(workload), QoSWeights(), outcomes.append,
            bid_deadline=0.001,
        )
        agora.run(until=agora.now + 10.0)
        assert len(outcomes) == 1
        assert outcomes[0].unserved_jobs
        assert marketplace.bids_late > 0

    def test_down_sources_never_bid(self, market_setup):
        agora, workload, marketplace = market_setup
        for source in agora.sources.values():
            agora.health.set_state(source.node_id, False)
        outcomes = []
        marketplace.negotiate(_query(workload), QoSWeights(), outcomes.append)
        agora.run(until=agora.now + 10.0)
        assert len(outcomes) == 1
        assert outcomes[0].unserved_jobs
        assert len(outcomes[0].unserved_jobs) == 5

    def test_invalid_deadline(self, market_setup):
        agora, workload, marketplace = market_setup
        with pytest.raises(ValueError):
            marketplace.negotiate(
                _query(workload), QoSWeights(), lambda o: None, bid_deadline=0.0,
            )

    def test_invalid_thinking_time(self, market_setup):
        agora, __, __m = market_setup
        with pytest.raises(ValueError):
            AsyncMarketplace(agora, thinking_time=-1.0)

    def test_async_matches_sync_award_quality(self, market_setup):
        """The async market should award the same providers as the
        synchronous optimizer when every bid makes the deadline."""
        agora, workload, marketplace = market_setup
        profile = UserProfile(
            user_id="iris",
            interests=agora.topic_space.basis("folk-jewelry", 0.9),
            qos_weights=QoSWeights(),
        )
        query = _query(workload)
        sync_consumer = Consumer(agora, profile, planner="trading")
        sync_plan, sync_contracts, __ = sync_consumer.plan_query(query)
        outcomes = []
        marketplace.negotiate(query, QoSWeights(), outcomes.append,
                              bid_deadline=5.0)
        agora.run(until=agora.now + 20.0)
        async_providers = sorted(c.provider_id for c in outcomes[0].contracts)
        sync_providers = sorted(c.provider_id for c in sync_contracts)
        assert async_providers == sync_providers
