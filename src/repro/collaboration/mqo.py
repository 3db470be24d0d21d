"""Multi-query optimization across collaborating members.

"Collaboration also brings up several variations of the multiple query
optimization problem where different user profiles are used for different
queries" (§7).  When members of a session issue queries over the same
goal, their plans share retrieval jobs (same source × same domain × same
evidence).  The :class:`SharedJobExecutor` detects the overlap, executes
each distinct job once, and distributes the raw answers to every member —
who then applies their *own* personalized post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Mapping

from repro.query.algebra import PlanNode, Retrieve
from repro.query.execution import ExecutionContext, QueryExecutor
from repro.query.model import Query
from repro.uncertainty.results import UncertainResultSet


def job_key(leaf: Retrieve) -> Hashable:
    """Identity of a retrieval job for sharing purposes.

    Two leaves are the same job when they target the same source and
    domain with the same evidence (terms or reference item).
    """
    parent = leaf.subquery.parent
    if parent.terms is not None:
        evidence: Hashable = tuple(sorted(parent.terms.items()))
    elif parent.reference_item is not None:
        evidence = parent.reference_item.item_id
    else:
        evidence = parent.query_id
    return (leaf.source_id, leaf.subquery.domain, evidence, parent.k)


@dataclass
class SharingReport:
    """How much work sharing saved."""

    total_jobs: int
    distinct_jobs: int

    @property
    def jobs_saved(self) -> int:
        """Executions avoided by sharing."""
        return self.total_jobs - self.distinct_jobs

    @property
    def savings_ratio(self) -> float:
        """Saved / total job executions."""
        if self.total_jobs == 0:
            return 0.0
        return self.jobs_saved / self.total_jobs


@dataclass
class SharedExecutionResult:
    """Per-member results of a shared execution round."""

    member_results: Dict[str, UncertainResultSet]
    report: SharingReport


class SharedJobExecutor:
    """Executes members' plans with common-job sharing.

    Parameters
    ----------
    context:
        Execution context (registry, oracle, calibrator, ...).  Shared by
        all members — personalization happens after retrieval.
    """

    def __init__(self, context: ExecutionContext):
        self.context = context

    def execute(
        self,
        plans: Mapping[str, PlanNode],
        queries: Mapping[str, Query],
    ) -> SharedExecutionResult:
        """Run all members' plans, evaluating each distinct job once.

        Each member's final result set is the merge of their own plan's
        job results, truncated to their query's k.
        """
        if set(plans) != set(queries):
            raise ValueError("plans and queries must cover the same members")
        executor = QueryExecutor(self.context)
        cache: Dict[Hashable, UncertainResultSet] = {}
        total = 0
        member_results: Dict[str, UncertainResultSet] = {}
        for member_id in sorted(plans):
            plan = plans[member_id]
            query = queries[member_id]
            merged = UncertainResultSet()
            for leaf in plan.leaves():
                total += 1
                key = job_key(leaf)
                if key not in cache:
                    results, __, __answer = executor.execute_leaf(leaf)
                    cache[key] = results
                merged = merged.merge(cache[key])
            member_results[member_id] = merged.top_k(query.k)
        report = SharingReport(total_jobs=total, distinct_jobs=len(cache))
        return SharedExecutionResult(member_results=member_results, report=report)
