"""End-to-end observability: causal span trees and manifest attestation.

The acceptance bar for the observability layer: a seeded run exports a
span forest where every retry/hedge/failover/merge span is a descendant
of the query that caused it (causality survives the event queue), and
two same-seed runs produce manifests with zero drift while different
seeds visibly drift.
"""

import numpy as np
import pytest

from repro.core import Consumer
from repro.core.builder import build_agora
from repro.data import DomainSpec, reset_item_ids
from repro.net import LoadModel, NodeHealth, reset_message_ids
from repro.obs import SpanTracer, ancestors, descendants_of, diff_manifests, span_index
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
    """Two mirrored museum sources on separate nodes, with a live tracer."""
    tracer = SpanTracer()
    sim = Simulator(seed=5, tracer=tracer)
    nodes = ["node-m1", "node-m2"]
    health = NodeHealth(sim, nodes, sim.rng.spawn("h"), enabled=False)
    load = LoadModel(sim.rng.spawn("l"))
    registry = SourceRegistry()
    museum = DomainSpec(name="museum", topic_prior={"folk-jewelry": 1.0})
    shared = corpus_generator.generate(museum, 25)
    for source_id in ("m1", "m2"):
        registry.register(make_source(
            source_id, corpus_generator, matching_engine, streams,
            domain_spec=museum, health=health, load=load, items=shared,
        ))
    return sim, tracer, health, registry, oracle


def make_context(sim, tracer, registry, oracle, config, seed=11):
    board = BreakerBoard(config.breaker, now_fn=lambda: sim.now, trace=sim.trace)
    runtime = ResilienceRuntime(
        config, registry=registry, breakers=board,
        rng=np.random.default_rng(seed), trace=sim.trace,
        now_fn=lambda: sim.now,
    )
    return ExecutionContext(
        registry=registry, oracle=oracle, now=sim.now,
        consumer_id="iris", resilience=runtime, tracer=tracer,
    )


def museum_plan(topic_space, vocabulary, k=8):
    query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=k)
    plan = standard_plan([Retrieve(query.restricted_to("museum"), "m1")], k=k)
    return query, plan


def spans_named(spans, name):
    return [s for s in spans if s.name == name]


class TestExecutorSpanCausality:
    def test_retry_and_failover_descend_from_execute_root(
        self, stack, topic_space, vocabulary
    ):
        sim, tracer, health, registry, oracle = stack
        health.set_state("node-m1", False)  # primary down -> retries, failover
        context = make_context(
            sim, tracer, registry, oracle, ResilienceConfig.default_enabled()
        )
        query, plan = museum_plan(topic_space, vocabulary)
        result = QueryExecutor(context).execute(plan, query)
        assert result.resilience_events.get("failovers", 0) >= 1

        spans = tracer.spans()
        roots = spans_named(spans, "execute")
        assert len(roots) == 1
        root = roots[0]
        retries = spans_named(spans, "retry")
        failovers = spans_named(spans, "failover")
        assert retries and failovers
        descendants = {s.span_id for s in descendants_of(root.span_id, spans)}
        for span in retries + failovers + spans_named(spans, "merge"):
            assert span.span_id in descendants
        # Retry spans carry attempt numbers against the declined primary.
        assert [s.attributes["attempt"] for s in retries] == [1, 2]
        assert all(s.attributes["declined"] for s in retries)
        assert failovers[0].attributes["primary"] == "m1"
        assert failovers[0].attributes["alternate"] == "m2"

    def test_hedge_span_descends_from_its_retrieve(
        self, stack, topic_space, vocabulary
    ):
        sim, tracer, health, registry, oracle = stack
        config = ResilienceConfig(
            enabled=True,
            retry=RetryPolicy(max_attempts=1),
            hedge=HedgePolicy(threshold=0.01, max_hedges=1),
        )
        context = make_context(sim, tracer, registry, oracle, config)
        query, plan = museum_plan(topic_space, vocabulary, k=25)
        result = QueryExecutor(context).execute(plan, query)
        assert result.resilience_events.get("hedges", 0) == 1

        spans = tracer.spans()
        index = span_index(spans)
        hedges = spans_named(spans, "hedge")
        assert len(hedges) == 1
        chain = [s.name for s in ancestors(hedges[0], index)]
        assert chain[0] == "retrieve"
        assert chain[-1] == "execute"

    def test_virtual_timestamps_nest(self, stack, topic_space, vocabulary):
        sim, tracer, health, registry, oracle = stack
        health.set_state("node-m1", False)
        context = make_context(
            sim, tracer, registry, oracle, ResilienceConfig.default_enabled()
        )
        query, plan = museum_plan(topic_space, vocabulary)
        QueryExecutor(context).execute(plan, query)
        index = span_index(tracer.spans())
        for span in tracer.spans():
            assert span.end is not None
            assert span.end >= span.start
            if span.parent_id is not None and span.parent_id in index:
                parent = index[span.parent_id]
                assert parent.start <= span.start


def run_traced_scenario(seed, availability=0.5, n_queries=8):
    # Mirrors examples/observability_demo.py: half the overlay down so
    # retries and failovers actually fire.
    reset_item_ids()
    reset_query_ids()
    reset_message_ids()
    agora = build_agora(seed=seed, n_sources=8, items_per_source=12,
                        calibration_pairs=0, enable_tracing=True)
    rng = np.random.default_rng(seed + 1)
    for node in agora.topology.nodes[:-1]:
        agora.health.set_state(node, bool(rng.random() < availability))
    workload = QueryWorkloadGenerator(
        agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("obs-demo"),
    )
    profile = UserProfile(
        user_id="iris", interests=agora.topic_space.basis("folk-jewelry", 0.9),
    )
    consumer = Consumer(
        agora, profile, planner="trading",
        resilience=ResilienceConfig.default_enabled(),
    )
    for index in range(n_queries):
        topic = agora.topic_space.names[index % 5]
        consumer.ask(workload.topic_query(topic, k=10))
    return agora


class TestAgoraEndToEnd:
    def test_every_effect_span_descends_from_a_query_root(self):
        agora = run_traced_scenario(seed=11)
        spans = agora.tracer.spans()
        index = span_index(spans)
        roots = spans_named(spans, "query")
        assert len(roots) == 8
        effect_names = {"retry", "hedge", "failover", "merge", "retrieve",
                        "plan", "settle", "rank", "execute"}
        effects = [s for s in spans if s.name in effect_names]
        assert effects
        # Causality: the ancestor chain of every effect span reaches a
        # query root — nothing is orphaned by the trip through the
        # event queue.
        for span in effects:
            chain = ancestors(span, index)
            assert chain, f"span {span.name}#{span.span_id} has no ancestors"
            assert chain[-1].name == "query"

    def test_scenario_produces_resilience_spans(self):
        agora = run_traced_scenario(seed=11)
        counters = agora.sim.metrics.counters()
        retries = counters.get("resilience.retries", 0)
        spans = agora.tracer.spans()
        assert retries >= 1
        assert len(spans_named(spans, "retry")) == retries

    def test_manifest_counts_match_run_state(self):
        agora = run_traced_scenario(seed=11)
        manifest = agora.run_manifest(scenario="integration")
        assert manifest.event_count == agora.sim.processed
        assert manifest.span_count == agora.tracer.span_count
        assert manifest.metrics == agora.sim.metrics.snapshot()
        assert manifest.labels == {"scenario": "integration"}

    def test_same_seed_zero_drift_diff_seed_drifts(self):
        first = run_traced_scenario(seed=11).run_manifest()
        second = run_traced_scenario(seed=11).run_manifest()
        report = diff_manifests(first, second)
        assert report.clean, report.render()
        assert first.digest() == second.digest()

        other = run_traced_scenario(seed=12).run_manifest()
        drifted = diff_manifests(first, other)
        assert not drifted.clean
        assert any(d.key == "seed" for d in drifted.drifts)

    def test_tracing_disabled_changes_no_results(self):
        def outcomes(enable_tracing):
            reset_item_ids()
            reset_query_ids()
            reset_message_ids()
            agora = build_agora(seed=7, n_sources=6, items_per_source=10,
                                calibration_pairs=0,
                                enable_tracing=enable_tracing)
            workload = QueryWorkloadGenerator(
                agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("obs"),
            )
            profile = UserProfile(
                user_id="iris",
                interests=agora.topic_space.basis("folk-jewelry", 0.9),
            )
            consumer = Consumer(agora, profile)
            trail = []
            for index in range(4):
                topic = agora.topic_space.names[index % 5]
                outcome = consumer.ask(workload.topic_query(topic, k=6))
                trail.append((
                    sorted(item.item_id for item in outcome.results.items()),
                    round(outcome.response_time, 12),
                ))
            return trail

        assert outcomes(True) == outcomes(False)
