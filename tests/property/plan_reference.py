"""Frozen per-plan reference for the columnar plan search.

A verbatim copy of the plan aggregation, the plan evaluation, the Pareto
front and the exhaustive product loop as they were before plan search
became one columnar pass.  Parity tests and the micro-benchmark compare
the library against it; it must not be changed to follow the library.
"""

import itertools
from typing import List

import numpy as np

from repro.optimizer import CandidatePlan, PlanEvaluation
from repro.qos import QoSVector, scalarize
from repro.uncertainty import risk_neutral


def expected_qos(plan):
    assignments = plan.all_assignments
    response_time = max(a.expected.response_time for a in assignments)
    per_job_completeness = []
    for job_id in plan.job_ids:
        misses = 1.0
        for assignment in plan.assignments[job_id]:
            misses *= 1.0 - assignment.expected.completeness
        per_job_completeness.append(1.0 - misses)
    return QoSVector(
        response_time=response_time,
        completeness=float(np.mean(per_job_completeness)),
        freshness=float(np.mean([a.expected.freshness for a in assignments])),
        correctness=float(np.mean([a.expected.correctness for a in assignments])),
        trust=float(np.mean([a.expected.trust for a in assignments])),
    )


def expected_price(plan, unit_price=1.0):
    return unit_price * sum(a.cost.mean for a in plan.all_assignments)


def breach_risk(plan):
    survival = 1.0
    for assignment in plan.all_assignments:
        survival *= 1.0 - assignment.breach_risk
    return 1.0 - survival


def evaluate_plan(plan, weights, price_sensitivity=0.02, risk_profile=None,
                  breach_penalty=0.5):
    if risk_profile is None:
        risk_profile = risk_neutral()
    qos = expected_qos(plan)
    price = expected_price(plan)
    utility = max(0.0, scalarize(qos, weights) - price_sensitivity * price)
    risk = breach_risk(plan)
    degraded = utility * breach_penalty
    risk_adjusted = risk_profile.certainty_equivalent(
        [utility, degraded], [1.0 - risk, risk]
    )
    return PlanEvaluation(
        plan=plan,
        qos=qos,
        price=price,
        utility=utility,
        risk_adjusted_utility=risk_adjusted,
        breach_risk=risk,
    )


def dominates(a, b):
    at_least = a.utility >= b.utility and a.price <= b.price
    strictly = a.utility > b.utility or a.price < b.price
    return at_least and strictly


def pareto_front(evaluations) -> List[PlanEvaluation]:
    front: List[PlanEvaluation] = []
    seen_points = set()
    ordered = sorted(evaluations, key=lambda e: (-e.utility, e.price))
    for candidate in ordered:
        point = (round(candidate.utility, 12), round(candidate.price, 12))
        if point in seen_points:
            continue
        if any(dominates(existing, candidate) for existing in front):
            continue
        front = [e for e in front if not dominates(candidate, e)]
        front.append(candidate)
        seen_points.add(point)
    return sorted(front, key=lambda e: (-e.utility, e.price))


def exhaustive_search(table, scorer, max_plans=20000, max_replication=1):
    """``(best, front, explored)`` of the per-plan exhaustive search.

    Plans are scored by :func:`evaluate_plan` under ``scorer``'s weights,
    price sensitivity and risk profile.
    """

    def evaluate(plan):
        return evaluate_plan(
            plan, scorer.weights, scorer.price_sensitivity, scorer.risk_profile
        )

    if not table:
        raise ValueError("candidate table is empty")
    job_ids = sorted(table)
    space = 1
    for job_id in job_ids:
        space *= len(table[job_id])
    if space > max_plans:
        raise ValueError(
            f"plan space {space} exceeds max_plans={max_plans}; "
            "use GreedySearch or LocalSearch"
        )
    evaluations = []
    for combination in itertools.product(*(table[j] for j in job_ids)):
        plan = CandidatePlan(
            {job_id: [choice] for job_id, choice in zip(job_ids, combination)}
        )
        evaluations.append(evaluate(plan))
    for r in range(2, max_replication + 1):
        assignments = {}
        feasible = True
        for job_id, candidates in table.items():
            ranked = sorted(
                candidates,
                key=lambda c: (-c.expected.completeness, c.cost.mean, c.source_id),
            )
            if len(ranked) < r:
                feasible = False
                break
            assignments[job_id] = ranked[:r]
        if feasible:
            evaluations.append(evaluate(CandidatePlan(assignments)))
    best = max(evaluations, key=lambda e: (e.risk_adjusted_utility, -e.price))
    return best, pareto_front(evaluations), len(evaluations)


def fingerprint(evaluation):
    """An evaluation's plan signature and every float, as ``float.hex``."""
    qos = evaluation.qos
    floats = (
        qos.response_time, qos.completeness, qos.freshness, qos.correctness,
        qos.trust, evaluation.price, evaluation.utility,
        evaluation.risk_adjusted_utility, evaluation.breach_risk,
    )
    return evaluation.plan.signature(), tuple(float(value).hex() for value in floats)
