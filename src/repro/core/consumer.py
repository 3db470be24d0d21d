"""The consumer agent: a user's query-side representative.

"Users (or underlying query agents) negotiate with the information
resources they deal with" (§3) — the :class:`Consumer` is that agent.  One
``ask()`` call runs the paper's full loop:

1. activate the context-appropriate profile (§8),
2. complete the query with the profile's QoS weights and risk attitude (§5),
3. plan — by trading (contract-net + SLAs, §3-4) or by multi-objective
   search over advertised candidates (§4),
4. execute against live sources over the simulated overlay (§2's
   unavailability/overload/blacklist pathologies apply),
5. settle contracts and update trust (§3 + reputation),
6. personalize (and optionally socialize) the final ranking (§5-6).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.context.conditional import ConditionalProfile
from repro.context.model import Context
from repro.core.agora import Agora
from repro.obs.spans import NULL_TRACER
from repro.optimizer.candidates import CandidateEnumerator
from repro.optimizer.search import (
    ExhaustiveSearch,
    GreedySearch,
    LocalSearch,
    make_evaluator,
)
from repro.optimizer.trading import SourceBidder, TradingOptimizer
from repro.personalization.profile import UserProfile
from repro.personalization.ranking import PersonalizedRanker
from repro.qos.sla import SLAContract, SLAOutcome
from repro.qos.vector import QoSVector, scalarize
from repro.query.execution import ExecutionContext, ExecutionResult, QueryExecutor
from repro.query.model import Query
from repro.resilience.policy import ResilienceConfig
from repro.social.fusion import SocialRanker
from repro.trust.reputation import ReputationSystem
from repro.uncertainty.results import UncertainResultSet


@dataclass
class ConsumerResult:
    """Everything one ``ask()`` produced."""

    query: Query
    ranked_items: List
    results: UncertainResultSet
    delivered: QoSVector
    contracts: List[SLAContract] = field(default_factory=list)
    settlements: List[SLAOutcome] = field(default_factory=list)
    unserved_jobs: List[str] = field(default_factory=list)
    response_time: float = 0.0
    total_price: float = 0.0
    utility: float = 0.0
    declined_sources: List[str] = field(default_factory=list)
    resilience_events: Dict[str, float] = field(default_factory=dict)

    @property
    def breached_contracts(self) -> int:
        """How many of this ask's contracts breached."""
        return sum(1 for outcome in self.settlements if outcome.breached)

    @property
    def net_cost(self) -> float:
        """Total paid net of compensation across settlements."""
        return sum(outcome.consumer_net_cost for outcome in self.settlements)


class Consumer:
    """One user's agent inside an agora.

    Parameters
    ----------
    agora:
        The market to operate in.
    profile:
        A static :class:`UserProfile` or a context-sensitive
        :class:`ConditionalProfile`.
    node_id:
        Overlay attachment point; defaults to the agora's consumer node.
    planner:
        Overrides the agora config's planner kind.
    personalization_weight:
        α of the personalized re-ranking blend (0 disables).
    resilience:
        Per-consumer resilience policies (retry/hedge/breaker); defaults
        to the agora config's.  Pass
        :meth:`ResilienceConfig.default_enabled` to turn the defences on.
    """

    def __init__(
        self,
        agora: Agora,
        profile: Union[UserProfile, ConditionalProfile],
        node_id: Optional[str] = None,
        planner: Optional[str] = None,
        personalization_weight: float = 0.4,
        trust_view=None,
        resilience: Optional[ResilienceConfig] = None,
    ):
        self.agora = agora
        self._profile = profile
        self.node_id = node_id if node_id is not None else agora.consumer_node()
        self.planner = planner if planner is not None else agora.config.planner
        self.personalization_weight = personalization_weight
        #: the consumer's *personal* trust view (distinct from global ledger)
        self.reputation = ReputationSystem()
        #: optional socialized trust (anything with ``score(source_id)``,
        #: e.g. :class:`repro.social.SocialTrustView`); used for candidate
        #: discounting and QoS trust annotation in place of bare reputation
        self.trust_view = trust_view
        self.resilience_config = (
            resilience if resilience is not None else agora.config.resilience
        )
        #: shared-breaker resilience runtime; ``None`` when policies are off
        self.resilience = (
            agora.resilience_runtime(self.resilience_config)
            if self.resilience_config.enabled
            else None
        )
        self.history: List[ConsumerResult] = []

    def trust_in(self, source_id: str) -> float:
        """Current trust in a source (socialized view when configured)."""
        if self.trust_view is not None:
            return self.trust_view.score(source_id)
        return self.reputation.score(source_id)

    # ------------------------------------------------------------------
    @property
    def user_id(self) -> str:
        """The underlying (base) profile's user id."""
        if isinstance(self._profile, ConditionalProfile):
            return self._profile.base.user_id
        return self._profile.user_id

    def active_profile(self, context: Optional[Context] = None) -> UserProfile:
        """The profile in force under ``context`` (§8 activation)."""
        if isinstance(self._profile, ConditionalProfile):
            return self._profile.active_profile(context if context is not None else Context())
        return self._profile

    def concept_of(self, item) -> np.ndarray:
        """Estimated concept vector of an item (via the shared lifter)."""
        return self.agora.engine.cross.lifter.lift(item)

    # ------------------------------------------------------------------
    def ask(
        self,
        query: Query,
        context: Optional[Context] = None,
        social_ranker: Optional[SocialRanker] = None,
        personalize: bool = True,
    ) -> ConsumerResult:
        """Run the full shopping loop for one query."""
        tracer = self.agora.tracer if self.agora.tracer is not None else NULL_TRACER
        profile = self.active_profile(context)
        query = self._complete_query(query, profile)
        with tracer.span(
            "query", query_id=query.query_id, user=self.user_id
        ) as root:
            with tracer.span("plan", planner=self.planner) as plan_span:
                plan, contracts, unserved = self._plan(query, profile)
                plan_span.annotate(
                    contracts=len(contracts), unserved=len(unserved)
                )
            if plan is None:
                root.annotate(outcome="unserved")
                empty = ConsumerResult(
                    query=query, ranked_items=[], results=UncertainResultSet(),
                    delivered=QoSVector(response_time=0.0, completeness=0.0,
                                        freshness=0.0, correctness=0.0, trust=0.0),
                    unserved_jobs=unserved,
                )
                self.history.append(empty)
                return empty
            execution = self._execute(plan, query)
            with tracer.span("settle", contracts=len(contracts)) as settle_span:
                settlements = self._settle(contracts, execution)
                settle_span.annotate(
                    breached=sum(1 for s in settlements if s.breached)
                )
            with tracer.span("rank") as rank_span:
                ranked = self._rank(
                    execution.results, profile, social_ranker, personalize
                )
                rank_span.annotate(items=len(ranked))
            total_price = sum(contract.total_price for contract in contracts)
            utility = max(
                0.0,
                scalarize(execution.delivered, profile.qos_weights)
                - profile.price_sensitivity * total_price,
            )
            root.annotate(
                outcome="served",
                utility=utility,
                response_time=execution.response_time,
            )
        result = ConsumerResult(
            query=query,
            ranked_items=ranked,
            results=execution.results,
            delivered=execution.delivered,
            contracts=contracts,
            settlements=settlements,
            unserved_jobs=unserved,
            response_time=execution.response_time,
            total_price=total_price,
            utility=utility,
            declined_sources=execution.declined_sources,
            resilience_events=execution.resilience_events,
        )
        self.history.append(result)
        return result

    def ask_with_relaxation(
        self,
        query: Query,
        context: Optional[Context] = None,
        relaxation_step: float = 0.3,
        max_relaxations: int = 3,
        **ask_kwargs,
    ) -> ConsumerResult:
        """Ask, progressively relaxing the QoS requirement if unserved.

        "At any point, users need to make tradeoffs among these
        parameters" (§3): when the market declines the original terms,
        the consumer loosens every bound by ``relaxation_step`` and tries
        again, up to ``max_relaxations`` times.  The returned result's
        query carries the requirement that finally got served.
        """
        if not 0.0 < relaxation_step < 1.0:
            raise ValueError("relaxation_step must be in (0, 1)")
        if max_relaxations < 0:
            raise ValueError("max_relaxations must be non-negative")
        result = self.ask(query, context=context, **ask_kwargs)
        relaxations = 0
        while result.unserved_jobs and relaxations < max_relaxations:
            relaxations += 1
            query = query.with_requirement(
                query.requirement.relaxed(relaxation_step)
            )
            result = self.ask(query, context=context, **ask_kwargs)
        return result

    def plan_query(self, query: Query, context: Optional[Context] = None):
        """Plan without executing.

        Returns ``(plan_tree, contracts, unserved_jobs)`` — used by the
        collaborative multi-query optimizer, which executes plans itself.
        """
        profile = self.active_profile(context)
        return self._plan(self._complete_query(query, profile), profile)

    # ------------------------------------------------------------------
    def _complete_query(self, query: Query, profile: UserProfile) -> Query:
        """Query completion from the profile (§5): weights follow the user."""
        return replace(
            query,
            weights=profile.qos_weights,
            issuer_id=self.user_id,
            query_id=query.query_id,
        )

    def _plan(self, query: Query, profile: UserProfile):
        agora = self.agora
        if self.planner == "trading":
            bidders = [
                SourceBidder(source, now=agora.now)
                for __, source in sorted(agora.sources.items())
            ]
            optimizer = TradingOptimizer(
                bidders, profile.qos_weights,
                price_sensitivity=profile.price_sensitivity,
            )
            negotiated = optimizer.negotiate(
                query, agora.available_domains(), now=agora.now
            )
            return negotiated.plan, negotiated.contracts, negotiated.unserved_jobs
        enumerator = CandidateEnumerator(
            agora.registry,
            self.trust_view if self.trust_view is not None else self.reputation,
        )
        table = enumerator.candidate_table(query)
        if not table:
            return None, [], ["<no-candidates>"]
        evaluator = make_evaluator(
            profile.qos_weights,
            price_sensitivity=profile.price_sensitivity,
            risk_profile=profile.risk,
        )
        searchers = {
            "exhaustive": ExhaustiveSearch(),
            "greedy": GreedySearch(),
            "local": LocalSearch(),
        }
        result = searchers[self.planner].search(table, evaluator)
        return result.best.plan.to_plan_tree(query), [], []

    def _execute(self, plan, query: Query) -> ExecutionResult:
        agora = self.agora
        context = ExecutionContext(
            registry=agora.registry,
            oracle=agora.oracle,
            calibrator=agora.calibrator if agora.calibrator.is_fitted else None,
            now=agora.now,
            consumer_id=self.user_id,
            latency=lambda source_id: agora.latency_to_source(self.node_id, source_id),
            trust=self.trust_in,
            resilience=self.resilience,
            tracer=agora.tracer,
        )
        return QueryExecutor(context).execute(plan, query)

    def _settle(
        self, contracts: Sequence[SLAContract], execution: ExecutionResult
    ) -> List[SLAOutcome]:
        """Settle every signed contract against the audited delivery.

        Providers that signed but declined at execution time unilaterally
        cancelled; the rest settle against the overall delivered vector
        (a documented simplification — auditing is per-query, not per-job).
        """
        settlements = []
        declined = set(execution.declined_sources)
        for contract in contracts:
            if contract.provider_id in declined:
                outcome = self.agora.monitor.record_cancellation(
                    contract, by_provider=True
                )
            else:
                outcome = self.agora.monitor.settle(contract, execution.delivered)
            self.reputation.observe(contract.provider_id, outcome.compliance)
            settlements.append(outcome)
        return settlements

    def _rank(
        self,
        results: UncertainResultSet,
        profile: UserProfile,
        social_ranker: Optional[SocialRanker],
        personalize: bool,
    ):
        if social_ranker is not None:
            return social_ranker.rerank_items(results)
        if personalize and self.personalization_weight > 0:
            ranker = PersonalizedRanker(
                profile, self.concept_of,
                personalization_weight=self.personalization_weight,
            )
            return ranker.rerank_items(results)
        return results.items()

    # ------------------------------------------------------------------
    def personalized_ranker(
        self, context: Optional[Context] = None
    ) -> PersonalizedRanker:
        """A ranker bound to the currently active profile."""
        return PersonalizedRanker(
            self.active_profile(context), self.concept_of,
            personalization_weight=self.personalization_weight,
        )

    def subscribe(self, query: Query, threshold: Optional[float] = None) -> int:
        """Register a standing query on the agora's feed service (§9)."""
        from repro.multimodal.feeds import StandingQuery

        standing = StandingQuery.from_query(
            replace(query, issuer_id=self.user_id, query_id=query.query_id),
            threshold=threshold,
        )
        return self.agora.feeds.register(standing)

    def feed_inbox(self):
        """Take and clear this user's feed hits."""
        return self.agora.feeds.drain(self.user_id)
