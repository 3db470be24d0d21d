"""Plan execution against live sources.

The executor walks a plan tree, sends each ``Retrieve`` leaf to its
assigned source, calibrates raw scores into match probabilities, merges
uncertain result sets, and audits the delivery into a QoS vector via the
oracle.  Retrieval leaves under one ``Merge`` run *in parallel*: the plan's
response time is the slowest branch, not the sum.

When the context carries a :class:`repro.resilience.ResilienceRuntime`,
each leaf additionally gets the consumer-side defences against the §2
pathologies: deadline-aware retries with jittered backoff on declines,
failover and latency-hedging to alternate sources covering the same
domain, and per-source circuit breakers that skip known-bad sources
outright.  A leaf that exhausts every defence degrades to an empty result
instead of raising — partial answers beat no answers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.spans import NULL_TRACER, SpanTracer
from repro.qos.vector import QoSVector
from repro.query.algebra import Merge, PlanNode, Retrieve, TopK
from repro.query.model import Query, Subquery
from repro.query.oracle import RelevanceOracle
from repro.resilience.hedging import HedgeOutcome
from repro.resilience.runtime import ResilienceRuntime
from repro.sources.registry import SourceRegistry
from repro.sources.source import SourceAnswer
from repro.uncertainty.calibration import BinnedCalibrator
from repro.uncertainty.results import UncertainMatch, UncertainResultSet

LatencyFn = Callable[[str], float]
TrustFn = Callable[[str], float]


@dataclass
class ExecutionContext:
    """Everything the executor needs besides the plan itself.

    Attributes
    ----------
    registry:
        Where live source objects are found.
    oracle:
        Audits deliveries (stands in for user judgement).
    calibrator:
        Maps raw match scores to probabilities; ``None`` uses the raw
        score as the probability (the uncalibrated baseline).
    now:
        Virtual time of execution.
    consumer_id:
        Who is asking (sources may decline).
    latency:
        Network round-trip time to a source's node; default 0.
    trust:
        Consumer's current trust in a source; default 1.
    resilience:
        Optional :class:`ResilienceRuntime`; when present and enabled the
        executor retries, hedges and breaker-gates each leaf.
    tracer:
        Optional :class:`~repro.obs.spans.SpanTracer`; when attached the
        executor records a causal span per execution, merge, retrieval
        leaf, retry, failover and hedge.
    """

    registry: SourceRegistry
    oracle: RelevanceOracle
    calibrator: Optional[BinnedCalibrator] = None
    now: float = 0.0
    consumer_id: str = ""
    latency: Optional[LatencyFn] = None
    trust: Optional[TrustFn] = None
    resilience: Optional[ResilienceRuntime] = None
    tracer: Optional[SpanTracer] = None

    def latency_to(self, source_id: str) -> float:
        """Network latency to a source (0 without a latency model)."""
        return self.latency(source_id) if self.latency is not None else 0.0

    def trust_in(self, source_id: str) -> float:
        """Trust in a source (1 without a trust model)."""
        return self.trust(source_id) if self.trust is not None else 1.0


@dataclass
class ExecutionResult:
    """Outcome of executing one plan."""

    query: Query
    results: UncertainResultSet
    delivered: QoSVector
    answers: List[SourceAnswer] = field(default_factory=list)
    declined_sources: List[str] = field(default_factory=list)
    response_time: float = 0.0
    #: per-execution resilience counters (retries, hedges, ... ); empty
    #: when no resilience runtime was active
    resilience_events: Dict[str, float] = field(default_factory=dict)
    #: hedges/failovers issued during this execution
    hedge_outcomes: List[HedgeOutcome] = field(default_factory=list)


class QueryExecutor:
    """Executes plan trees."""

    def __init__(self, context: ExecutionContext):
        self.context = context
        self._tracer = context.tracer if context.tracer is not None else NULL_TRACER
        self._events: Dict[str, float] = defaultdict(float)
        self._hedges: List[HedgeOutcome] = []

    # ------------------------------------------------------------------
    def execute(self, plan: PlanNode, query: Query) -> ExecutionResult:
        """Run ``plan`` and audit the delivery."""
        answers: List[SourceAnswer] = []
        self._events = defaultdict(float)
        self._hedges = []
        with self._tracer.span(
            "execute", query_id=query.query_id, consumer=self.context.consumer_id
        ) as span:
            results, elapsed = self._run(plan, answers)
            span.annotate(
                response_time=elapsed,
                answers=len(answers),
                matches=len(results.items()),
            )
        served = {a.source_id for a in answers if not a.declined}
        declined_set = {a.source_id for a in answers if a.declined}
        if self.context.resilience is not None and self.context.resilience.enabled:
            # A source that declined but was successfully retried within
            # this execution did, in the end, deliver — don't cancel it.
            declined_set -= served
        declined = sorted(declined_set)
        used_sources = sorted(served)
        trust = (
            float(np.mean([self.context.trust_in(s) for s in used_sources]))
            if used_sources
            else 0.0
        )
        reachable = self._reachable_items(plan)
        delivered = self.context.oracle.delivered_qos(
            query=query,
            returned=results.items(),
            reachable=reachable,
            response_time=elapsed,
            now=self.context.now,
            source_trust=trust,
        )
        return ExecutionResult(
            query=query,
            results=results,
            delivered=delivered,
            answers=answers,
            declined_sources=declined,
            response_time=elapsed,
            resilience_events=dict(self._events),
            hedge_outcomes=list(self._hedges),
        )

    def execute_leaf(self, leaf: Retrieve):
        """Run a single retrieval leaf.

        Returns ``(results, elapsed, answer)`` — used by the collaborative
        multi-query optimizer to execute shared jobs exactly once.  With a
        resilience runtime the returned answer is the first non-declined
        one (the answer the leaf's results came from).
        """
        answers: List[SourceAnswer] = []
        results, elapsed = self._run_retrieve(leaf, answers)
        answer = next((a for a in answers if not a.declined), answers[0])
        return results, elapsed, answer

    # ------------------------------------------------------------------

    def _run(self, node: PlanNode, answers: List[SourceAnswer]):
        if isinstance(node, Retrieve):
            return self._run_retrieve(node, answers)
        if isinstance(node, Merge):
            with self._tracer.span("merge", children=len(node.children)) as span:
                child_outputs = [
                    self._run(child, answers) for child in node.children
                ]
                merged = UncertainResultSet()
                for result_set, __ in child_outputs:
                    merged = merged.merge(result_set)
                # A Merge can end up with zero children (e.g. a plan rewritten
                # after every leaf was abandoned): the union over nothing is
                # the empty set, delivered instantly.
                elapsed = max(
                    (elapsed for __, elapsed in child_outputs), default=0.0
                )
                span.annotate(elapsed=elapsed, matches=len(merged.items()))
            return merged, elapsed
        if isinstance(node, TopK):
            results, elapsed = self._run(node.child, answers)
            return results.top_k(node.k), elapsed
        raise TypeError(f"unknown plan node {type(node).__name__}")

    def _run_retrieve(self, node: Retrieve, answers: List[SourceAnswer]):
        runtime = self.context.resilience
        with self._tracer.span(
            "retrieve", source=node.source_id, job=node.job_id
        ) as span:
            if runtime is not None and runtime.enabled:
                results, elapsed = self._run_retrieve_resilient(
                    node, answers, runtime
                )
                span.annotate(elapsed=elapsed, resilient=True)
                return results, elapsed
            answer, cost = self._ask(node.source_id, node.subquery, answers)
            if answer.declined:
                span.annotate(declined=True)
                return UncertainResultSet(), 0.0
            span.annotate(elapsed=cost, candidates=answer.candidates_scanned)
            return self._result_set(answer, node.source_id), cost

    # -- plain building blocks ------------------------------------------
    def _ask(
        self,
        source_id: str,
        subquery: Subquery,
        answers: List[SourceAnswer],
    ) -> Tuple[SourceAnswer, float]:
        """One request to one source; returns the answer and its time cost.

        A decline still costs the network round trip (the consumer has to
        hear "no"); a served answer costs service time plus the round trip.
        """
        context = self.context
        source = context.registry.source(source_id)
        answer = source.answer(
            subquery, now=context.now, consumer_id=context.consumer_id
        )
        answers.append(answer)
        round_trip = 2.0 * context.latency_to(source_id)
        if answer.declined:
            return answer, round_trip
        return answer, answer.service_time + round_trip

    def _result_set(self, answer: SourceAnswer, source_id: str) -> UncertainResultSet:
        context = self.context
        matches = []
        for item, score in answer.matches:
            score = float(np.clip(score, 0.0, 1.0))
            if context.calibrator is not None and context.calibrator.is_fitted:
                probability = context.calibrator.predict(score)
            else:
                probability = score
            matches.append(
                UncertainMatch(
                    item=item,
                    score=score,
                    probability=probability,
                    source_id=source_id,
                )
            )
        return UncertainResultSet(matches)

    # -- resilient leaf --------------------------------------------------
    def _count(self, runtime: ResilienceRuntime, name: str) -> None:
        runtime.count(name)
        self._events[name] += 1.0

    def _run_retrieve_resilient(
        self,
        node: Retrieve,
        answers: List[SourceAnswer],
        runtime: ResilienceRuntime,
    ):
        """One leaf under retry + failover + hedging + breaker policies.

        Timing model: attempts against the primary are sequential (each
        retry waits its backoff), failover attempts are sequential after
        the primary gives up, and a latency hedge runs *in parallel* with
        a slow primary — the leaf completes at the first non-declined
        answer, while late successful duplicates still enrich the merged
        result set (dedup by item id, so nothing is double-counted).
        """
        subquery = node.subquery
        tracer = self._tracer
        tried: set = set()
        clock = 0.0

        def attempt(source_id: str) -> Tuple[SourceAnswer, float]:
            tried.add(source_id)
            answer, cost = self._ask(source_id, subquery, answers)
            runtime.record_outcome(source_id, not answer.declined)
            return answer, cost

        # --- primary, with deadline-aware retries ---------------------
        primary_answer: Optional[SourceAnswer] = None
        if runtime.allow(node.source_id):
            primary_answer, cost = attempt(node.source_id)
            clock += cost
            retries = 0
            while (
                primary_answer.declined
                and retries < runtime.config.retry.max_attempts - 1
            ):
                delay = runtime.backoff_delay(retries)
                if not runtime.within_deadline(subquery, clock + delay):
                    self._count(runtime, "deadline_stops")
                    tracer.event("deadline_stop", source=node.source_id)
                    break
                clock += delay
                retries += 1
                self._count(runtime, "retries")
                with tracer.span(
                    "retry", source=node.source_id, attempt=retries, backoff=delay
                ) as retry_span:
                    primary_answer, cost = attempt(node.source_id)
                    retry_span.annotate(declined=primary_answer.declined)
                clock += cost
        else:
            tried.add(node.source_id)
            self._count(runtime, "breaker_short_circuits")
            tracer.event("breaker_short_circuit", source=node.source_id)

        primary_ok = primary_answer is not None and not primary_answer.declined
        results = (
            self._result_set(primary_answer, node.source_id)
            if primary_ok
            else UncertainResultSet()
        )

        # --- failover: primary gave up, alternates take over ----------
        if not primary_ok:
            for alternate in runtime.alternates(subquery, exclude=tried):
                if not runtime.within_deadline(subquery, clock):
                    self._count(runtime, "deadline_stops")
                    tracer.event("deadline_stop", source=node.source_id)
                    break
                self._count(runtime, "failovers")
                with tracer.span(
                    "failover", primary=node.source_id, alternate=alternate
                ) as failover_span:
                    answer, cost = attempt(alternate)
                    failover_span.annotate(declined=answer.declined)
                clock += cost
                if not answer.declined:
                    self._count(runtime, "leaf_recoveries")
                    self._hedges.append(HedgeOutcome(
                        job_id=node.job_id,
                        primary=node.source_id,
                        alternate=alternate,
                        primary_elapsed=clock - cost,
                        alternate_elapsed=cost,
                        winner=alternate,
                    ))
                    return self._result_set(answer, alternate), clock
            self._count(runtime, "leaf_failures")
            return results, clock

        # --- latency hedge: primary served, but slowly ----------------
        hedge = runtime.config.hedge
        completion = clock
        if hedge.fires(clock) and runtime.within_deadline(subquery, hedge.threshold):
            issued = 0
            for alternate in runtime.alternates(subquery, exclude=tried):
                if issued >= hedge.max_hedges:
                    break
                issued += 1
                self._count(runtime, "hedges")
                with tracer.span(
                    "hedge", primary=node.source_id, alternate=alternate
                ) as hedge_span:
                    answer, cost = attempt(alternate)
                    hedge_span.annotate(declined=answer.declined)
                if answer.declined:
                    continue
                hedge_completion = hedge.threshold + cost
                if hedge_completion < completion:
                    self._count(runtime, "hedge_wins")
                    completion = hedge_completion
                self._hedges.append(HedgeOutcome(
                    job_id=node.job_id,
                    primary=node.source_id,
                    alternate=alternate,
                    primary_elapsed=clock,
                    alternate_elapsed=hedge_completion,
                    winner=(
                        alternate if hedge_completion < clock else node.source_id
                    ),
                ))
                results = results.merge(self._result_set(answer, alternate))
        return results, completion

    def _reachable_items(self, plan: PlanNode) -> List:
        """All items visible at any source the plan touches (dedup by id)."""
        context = self.context
        seen: Dict[str, object] = {}
        for leaf in plan.leaves():
            source = context.registry.source(leaf.source_id)
            for item in source.visible_items(context.now, domain=leaf.subquery.domain):
                seen.setdefault(item.item_id, item)
        return list(seen.values())
