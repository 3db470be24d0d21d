"""Tests for the trading-based optimizer."""

import pytest

from repro.data import DomainSpec
from repro.optimizer import SourceBidder, TradingOptimizer
from repro.qos import QoSRequirement, QoSWeights, RiskPricedPremium
from repro.query import ExecutionContext, QueryExecutor
from repro.sources import SourceQuality, SourceRegistry

from tests.conftest import make_source, make_topic_query


@pytest.fixture
def market(corpus_generator, matching_engine, streams):
    registry = SourceRegistry()
    museum = DomainSpec(name="museum", topic_prior={"folk-jewelry": 1.0})
    auction = DomainSpec(name="auction", topic_prior={"auction-market": 1.0})
    specs = {
        "m-good": (museum, SourceQuality(coverage=0.95, freshness_lag=0.0, error_rate=0.02)),
        "m-poor": (museum, SourceQuality(coverage=0.4, freshness_lag=0.0, error_rate=0.3)),
        "a-only": (auction, SourceQuality(coverage=0.9, freshness_lag=0.0, error_rate=0.05)),
    }
    sources = {}
    for source_id, (spec, quality) in specs.items():
        source = make_source(
            source_id, corpus_generator, matching_engine, streams,
            domain_spec=spec, quality=quality,
        )
        registry.register(source)
        sources[source_id] = source
    bidders = [SourceBidder(source) for source in sources.values()]
    return registry, sources, bidders


class TestSourceBidder:
    def test_bids_on_covered_domain(self, market, topic_space, vocabulary):
        registry, sources, bidders = market
        from repro.negotiation import CallForProposals
        cfp = CallForProposals(
            job_id="j", domain="museum",
            requirement=QoSRequirement(min_completeness=0.3),
            consumer_id="iris",
        )
        proposal = SourceBidder(sources["m-good"])(cfp)
        assert proposal is not None
        assert proposal.provider_id == "m-good"
        assert proposal.quote.total > 0

    def test_ignores_other_domains(self, market):
        registry, sources, bidders = market
        from repro.negotiation import CallForProposals
        cfp = CallForProposals(
            job_id="j", domain="auction",
            requirement=QoSRequirement(),
            consumer_id="iris",
        )
        assert SourceBidder(sources["m-good"])(cfp) is None

    def test_declines_hopeless_requirements(self, market):
        registry, sources, bidders = market
        from repro.negotiation import CallForProposals
        cfp = CallForProposals(
            job_id="j", domain="museum",
            requirement=QoSRequirement(min_completeness=0.99, max_response_time=0.0001),
            consumer_id="iris",
        )
        assert SourceBidder(sources["m-poor"], risk_tolerance=0.5)(cfp) is None

    def test_riskier_requirements_cost_more(self, market):
        registry, sources, bidders = market
        from repro.negotiation import CallForProposals
        easy = CallForProposals(
            job_id="j1", domain="museum",
            requirement=QoSRequirement(min_completeness=0.1),
            consumer_id="iris",
        )
        hard = CallForProposals(
            job_id="j2", domain="museum",
            requirement=QoSRequirement(min_completeness=0.9, min_correctness=0.97),
            consumer_id="iris",
        )
        bidder = SourceBidder(sources["m-good"], pricing=RiskPricedPremium(), risk_tolerance=1.0)
        easy_bid = bidder(easy)
        hard_bid = bidder(hard)
        assert hard_bid.quote.premium > easy_bid.quote.premium

    def test_invalid_risk_tolerance(self, market):
        registry, sources, __ = market
        with pytest.raises(ValueError):
            SourceBidder(sources["m-good"], risk_tolerance=1.5)


class TestTradingOptimizer:
    def test_negotiates_full_plan(self, market, topic_space, vocabulary):
        registry, sources, bidders = market
        optimizer = TradingOptimizer(bidders, QoSWeights())
        query = make_topic_query(
            topic_space, vocabulary, "folk-jewelry",
            requirement=QoSRequirement(min_completeness=0.2),
            issuer_id="iris",
        )
        outcome = optimizer.negotiate(query, registry.domains())
        assert outcome.plan is not None and not outcome.unserved_jobs
        assert len(outcome.contracts) == 2  # museum + auction jobs
        assert sum(c.total_price for c in outcome.contracts) > 0

    def test_prefers_better_source(self, market, topic_space, vocabulary):
        registry, sources, bidders = market
        optimizer = TradingOptimizer(bidders, QoSWeights(), price_sensitivity=0.001)
        query = make_topic_query(
            topic_space, vocabulary, "folk-jewelry",
            requirement=QoSRequirement(min_completeness=0.2),
            issuer_id="iris", target_domains=("museum",),
        )
        outcome = optimizer.negotiate(query, registry.domains())
        assert {c.provider_id for c in outcome.contracts} == {"m-good"}

    def test_unserved_jobs_reported(self, market, topic_space, vocabulary):
        registry, sources, __ = market
        cautious_bidders = [
            SourceBidder(source, risk_tolerance=0.3) for source in sources.values()
        ]
        optimizer = TradingOptimizer(cautious_bidders, QoSWeights())
        query = make_topic_query(
            topic_space, vocabulary, "folk-jewelry",
            requirement=QoSRequirement(min_completeness=0.999,
                                       max_response_time=1e-6),
            issuer_id="iris",
        )
        outcome = optimizer.negotiate(query, registry.domains())
        assert outcome.unserved_jobs
        assert outcome.plan is None
        assert len(outcome.unserved_jobs) == 2

    def test_negotiated_plan_executes(
        self, market, topic_space, vocabulary, oracle
    ):
        registry, sources, bidders = market
        optimizer = TradingOptimizer(bidders, QoSWeights())
        query = make_topic_query(
            topic_space, vocabulary, "folk-jewelry",
            requirement=QoSRequirement(min_completeness=0.1),
            issuer_id="iris",
        )
        outcome = optimizer.negotiate(query, registry.domains())
        context = ExecutionContext(registry=registry, oracle=oracle,
                                   consumer_id="iris")
        result = QueryExecutor(context).execute(outcome.plan, query)
        assert len(result.results) > 0
