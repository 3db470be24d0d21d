"""End-to-end tests for the resilient execution path.

The scenarios mirror §2's pathologies: an unavailable primary fails over,
a slow primary gets hedged, retries stay inside the deadline budget, an
open breaker short-circuits, and a mid-query outage degrades to partial
results instead of raising.
"""

import numpy as np
import pytest

from repro.core import Consumer
from repro.core.builder import build_agora
from repro.data import DomainSpec, reset_item_ids
from repro.net import LoadModel, NodeHealth, reset_message_ids
from repro.personalization import UserProfile
from repro.query import (
    ExecutionContext,
    QueryExecutor,
    Retrieve,
    reset_query_ids,
    standard_plan,
)
from repro.resilience import (
    BreakerBoard,
    BreakerPolicy,
    FaultScript,
    HedgePolicy,
    ResilienceConfig,
    ResilienceRuntime,
    RetryPolicy,
)
from repro.sim import Simulator
from repro.sources import SourceRegistry
from repro.workloads import QueryWorkloadGenerator

from tests.conftest import make_source, make_topic_query


@pytest.fixture
def stack(corpus_generator, matching_engine, streams, oracle):
    """Two mirrored museum sources + one auction source, health-aware."""
    sim = Simulator(seed=5)
    nodes = ["node-m1", "node-m2", "node-a1"]
    health = NodeHealth(sim, nodes, sim.rng.spawn("h"), enabled=False)
    load = LoadModel(sim.rng.spawn("l"))
    registry = SourceRegistry()
    museum = DomainSpec(name="museum", topic_prior={"folk-jewelry": 1.0})
    auction = DomainSpec(name="auction", topic_prior={"auction-market": 1.0})
    shared = corpus_generator.generate(museum, 25)
    for source_id in ("m1", "m2"):
        registry.register(make_source(
            source_id, corpus_generator, matching_engine, streams,
            domain_spec=museum, health=health, load=load, items=shared,
        ))
    registry.register(make_source(
        "a1", corpus_generator, matching_engine, streams,
        domain_spec=auction, n_items=15, health=health, load=load,
    ))
    return sim, health, load, registry, oracle


def _served(result):
    """Sorted ids of the sources that answered."""
    return sorted({a.source_id for a in result.answers if not a.declined})


def make_context(sim, registry, oracle, config, latency=None, seed=11):
    board = BreakerBoard(
        config.breaker, now_fn=lambda: sim.now, trace=sim.trace
    )
    runtime = ResilienceRuntime(
        config, registry=registry, breakers=board,
        rng=np.random.default_rng(seed), trace=sim.trace,
        now_fn=lambda: sim.now,
    )
    return ExecutionContext(
        registry=registry, oracle=oracle, now=sim.now,
        consumer_id="iris", latency=latency, resilience=runtime,
    )


def museum_plan(topic_space, vocabulary, source_id="m1", k=8, **query_kwargs):
    query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=k,
                             **query_kwargs)
    plan = standard_plan([Retrieve(query.restricted_to("museum"), source_id)], k=k)
    return query, plan


class TestFailover:
    def test_down_primary_fails_over_to_mirror(
        self, stack, topic_space, vocabulary
    ):
        sim, health, load, registry, oracle = stack
        health.set_state("node-m1", False)
        context = make_context(
            sim, registry, oracle, ResilienceConfig.default_enabled()
        )
        query, plan = museum_plan(topic_space, vocabulary)
        result = QueryExecutor(context).execute(plan, query)
        assert len(result.results) > 0
        assert _served(result) == ["m2"]
        assert result.resilience_events.get("failovers", 0) >= 1
        assert result.resilience_events.get("leaf_recoveries", 0) == 1
        assert [h.winner for h in result.hedge_outcomes] == ["m2"]

    def test_breaker_short_circuits_after_repeated_failures(
        self, stack, topic_space, vocabulary
    ):
        sim, health, load, registry, oracle = stack
        health.set_state("node-m1", False)
        config = ResilienceConfig(
            enabled=True,
            retry=RetryPolicy(max_attempts=1),
            breaker=BreakerPolicy(failure_threshold=1, recovery_time=1e9),
        )
        context = make_context(sim, registry, oracle, config)
        query, plan = museum_plan(topic_space, vocabulary)
        executor = QueryExecutor(context)
        first = executor.execute(plan, query)  # trips m1's breaker
        assert "m1" in first.declined_sources
        second = executor.execute(plan, query)
        # m1 was never even asked the second time round.
        assert all(a.source_id != "m1" for a in second.answers)
        assert second.resilience_events.get("breaker_short_circuits", 0) == 1
        assert _served(second) == ["m2"]

    def test_mid_query_outage_degrades_to_partial_results(
        self, stack, topic_space, vocabulary
    ):
        sim, health, load, registry, oracle = stack
        health.set_state("node-a1", False)  # auction has no mirror
        context = make_context(
            sim, registry, oracle, ResilienceConfig.default_enabled()
        )
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=10)
        plan = standard_plan(
            [
                Retrieve(query.restricted_to("museum"), "m1"),
                Retrieve(query.restricted_to("auction"), "a1"),
            ],
            k=10,
        )
        result = QueryExecutor(context).execute(plan, query)
        assert len(result.results) > 0  # museum still answered
        assert result.declined_sources == ["a1"]
        assert result.resilience_events.get("leaf_failures", 0) >= 1
        assert all(m.item.domain == "museum" for m in result.results)


class TestRetryBudget:
    def test_retries_stop_at_policy_deadline(
        self, stack, topic_space, vocabulary
    ):
        sim, health, load, registry, oracle = stack
        health.set_state("node-a1", False)
        config = ResilienceConfig(
            enabled=True,
            retry=RetryPolicy(max_attempts=10, base_delay=1.0, multiplier=1.0,
                              jitter=0.0, deadline=2.5),
        )
        context = make_context(sim, registry, oracle, config)
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        plan = standard_plan([Retrieve(query.restricted_to("auction"), "a1")], k=5)
        result = QueryExecutor(context).execute(plan, query)
        # initial try + 2 retries fit in the 2.5 budget; the 3rd would not
        assert len(result.answers) == 3
        assert result.resilience_events.get("retries", 0) == 2
        assert result.resilience_events.get("deadline_stops", 0) == 1
        assert len(result.results) == 0

    def test_query_requirement_bounds_retries_when_no_policy_deadline(
        self, stack, topic_space, vocabulary
    ):
        from repro.qos import QoSRequirement

        sim, health, load, registry, oracle = stack
        health.set_state("node-m1", False)
        config = ResilienceConfig(
            enabled=True,
            retry=RetryPolicy(max_attempts=10, base_delay=1.0, multiplier=1.0,
                              jitter=0.0, deadline=None),
        )
        context = make_context(sim, registry, oracle, config)
        query, plan = museum_plan(
            topic_space, vocabulary,
            requirement=QoSRequirement(max_response_time=0.5),
        )
        result = QueryExecutor(context).execute(plan, query)
        # No retry fits a 0.5 budget, but the instant failover does.
        assert result.resilience_events.get("retries", 0) == 0
        assert result.resilience_events.get("deadline_stops", 0) == 1
        assert _served(result) == ["m2"]

    def test_retry_eventually_recovers_flaky_source(
        self, stack, topic_space, vocabulary
    ):
        sim, health, load, registry, oracle = stack
        # a1 declines its first two requests, then serves.
        declines = iter([(False, "overloaded")] * 2)
        registry.source("a1").accepts = lambda consumer_id, now: next(declines, (True, ""))
        config = ResilienceConfig(
            enabled=True,
            retry=RetryPolicy(max_attempts=8, base_delay=0.01, jitter=0.0),
        )
        context = make_context(sim, registry, oracle, config, seed=2)
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=5)
        plan = standard_plan([Retrieve(query.restricted_to("auction"), "a1")], k=5)
        result = QueryExecutor(context).execute(plan, query)
        assert len(result.results) > 0
        assert _served(result) == ["a1"]
        assert result.resilience_events.get("retries", 0) >= 1


class TestHedging:
    def test_hedged_leaf_never_double_counts_items(
        self, stack, topic_space, vocabulary
    ):
        sim, health, load, registry, oracle = stack
        config = ResilienceConfig(
            enabled=True,
            retry=RetryPolicy(max_attempts=1),
            hedge=HedgePolicy(threshold=0.01, max_hedges=1),
        )
        context = make_context(sim, registry, oracle, config)
        query, plan = museum_plan(topic_space, vocabulary, k=25)
        result = QueryExecutor(context).execute(plan, query)
        ids = [m.item.item_id for m in result.results]
        assert len(ids) == len(set(ids))
        assert result.resilience_events.get("hedges", 0) == 1
        assert {a.source_id for a in result.answers} == {"m1", "m2"}
        assert {m.source_id for m in result.results} <= {"m1", "m2"}

    def test_hedge_win_cuts_response_time(self, stack, topic_space, vocabulary):
        sim, health, load, registry, oracle = stack
        # m1 sits behind a slow link; its mirror m2 is local.
        latency = {"m1": 0.5, "m2": 0.0, "a1": 0.0}.__getitem__
        config = ResilienceConfig(
            enabled=True,
            retry=RetryPolicy(max_attempts=1),
            hedge=HedgePolicy(threshold=0.5, max_hedges=1),
        )
        context = make_context(sim, registry, oracle, config, latency=latency)
        query, plan = museum_plan(topic_space, vocabulary)
        result = QueryExecutor(context).execute(plan, query)
        slow_context = make_context(
            sim, registry, oracle,
            ResilienceConfig(enabled=True, retry=RetryPolicy(max_attempts=1),
                             hedge=HedgePolicy(threshold=0.5, max_hedges=0)),
            latency=latency,
        )
        unhedged = QueryExecutor(slow_context).execute(plan, query)
        assert result.resilience_events.get("hedge_wins", 0) == 1
        assert result.response_time < unhedged.response_time
        assert any(h.winner == h.alternate for h in result.hedge_outcomes)


class TestDeterministicRecovery:
    def _run_scenario(self, seed=29):
        reset_item_ids()
        reset_query_ids()
        reset_message_ids()
        agora = build_agora(seed=seed, n_sources=6, items_per_source=8,
                            calibration_pairs=0)
        script = FaultScript()
        for source_id in sorted(agora.sources)[:3]:
            node = agora.registry.source(source_id).node_id
            script.outage(node, start=1.0, duration=50.0)
        agora.inject_faults(script)
        agora.run(until=5.0)
        profile = UserProfile(
            user_id="iris",
            interests=agora.topic_space.basis("folk-jewelry", 0.9),
        )
        consumer = Consumer(
            agora, profile,
            resilience=ResilienceConfig(
                enabled=True,
                retry=RetryPolicy(max_attempts=3, jitter=0.5),
                hedge=HedgePolicy(threshold=0.2, max_hedges=1),
            ),
        )
        workload = QueryWorkloadGenerator(
            agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("det"),
        )
        trail = []
        for index in range(4):
            topic = agora.topic_space.names[index % 5]
            outcome = consumer.ask(workload.topic_query(topic, k=6))
            trail.append((
                sorted(item.item_id for item in outcome.results.items()),
                [round(m.probability, 12) for m in outcome.results],
                dict(outcome.resilience_events),
                round(outcome.response_time, 12),
            ))
        counters = {
            name: value
            for name, value in agora.sim.trace.counters().items()
            if name.startswith("resilience.") or name.startswith("faults.")
        }
        return trail, counters

    def test_same_seed_same_faults_replays_bit_for_bit(self):
        first = self._run_scenario(seed=29)
        second = self._run_scenario(seed=29)
        assert first == second

    def test_counters_mirrored_into_trace(self, stack, topic_space, vocabulary):
        sim, health, load, registry, oracle = stack
        health.set_state("node-m1", False)
        context = make_context(
            sim, registry, oracle, ResilienceConfig.default_enabled()
        )
        query, plan = museum_plan(topic_space, vocabulary)
        result = QueryExecutor(context).execute(plan, query)
        assert result.resilience_events  # something happened
        for name, value in result.resilience_events.items():
            assert sim.trace.counter(f"resilience.{name}") >= value
