"""Adaptive execution: dynamic re-optimization on source declines.

§2 notes that uncertainty in the processing environment "is partially
overcome through dynamic or parametric query optimization".  The
:class:`AdaptiveExecutor` embodies the dynamic flavour: when a contracted
source declines at execution time (down or overloaded), the affected job
is immediately re-assigned to the next-best fallback source and the plan
re-runs, up to a retry budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.query.algebra import PlanNode, Retrieve, standard_plan
from repro.query.execution import ExecutionContext, ExecutionResult, QueryExecutor
from repro.query.model import Query, Subquery

FallbackFn = Callable[[Subquery], List[str]]


@dataclass(frozen=True)
class Reassignment:
    """One job moved from a declining source to a fallback."""

    job_id: str
    from_source: str
    to_source: str
    attempt: int


@dataclass
class AdaptiveResult:
    """Outcome of an adaptive execution."""

    final: ExecutionResult
    attempts: int
    reassignments: List[Reassignment] = field(default_factory=list)
    abandoned_jobs: List[str] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """True when every initially-declined job was eventually served."""
        return not self.final.declined_sources and not self.abandoned_jobs


class AdaptiveExecutor:
    """Executes plans with decline-triggered re-assignment.

    Parameters
    ----------
    context:
        The execution context (shared with the plain executor).
    fallbacks:
        Maps a subquery to an ordered list of candidate source ids
        (best first); typically built from the candidate enumerator.
    max_attempts:
        Total executions allowed (1 = no adaptation).
    """

    def __init__(
        self,
        context: ExecutionContext,
        fallbacks: FallbackFn,
        max_attempts: int = 3,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.context = context
        self.fallbacks = fallbacks
        self.max_attempts = max_attempts

    def execute(self, plan: PlanNode, query: Query) -> AdaptiveResult:
        """Run ``plan``; re-assign declined jobs and retry."""
        executor = QueryExecutor(self.context)
        reassignments: List[Reassignment] = []
        tried: Dict[str, set] = {}
        current = plan
        result = executor.execute(current, query)
        attempt = 1
        while result.declined_sources and attempt < self.max_attempts:
            current, moved, abandoned = self._reassign(
                current, query, result, tried, attempt,
            )
            if not moved:
                return AdaptiveResult(
                    final=result, attempts=attempt,
                    reassignments=reassignments, abandoned_jobs=abandoned,
                )
            reassignments.extend(moved)
            result = executor.execute(current, query)
            attempt += 1
        abandoned = sorted(
            {
                answer.subquery_id
                for answer in result.answers
                if answer.declined
            }
        )
        return AdaptiveResult(
            final=result, attempts=attempt,
            reassignments=reassignments, abandoned_jobs=abandoned,
        )

    # ------------------------------------------------------------------
    def _reassign(
        self,
        plan: PlanNode,
        query: Query,
        result: ExecutionResult,
        tried: Dict[str, set],
        attempt: int,
    ) -> Tuple[PlanNode, List[Reassignment], List[str]]:
        declined = set(result.declined_sources)
        moved: List[Reassignment] = []
        abandoned: List[str] = []
        new_leaves: List[Retrieve] = []
        for leaf in plan.leaves():
            job_tried = tried.setdefault(leaf.job_id, set())
            job_tried.add(leaf.source_id)
            if leaf.source_id not in declined:
                new_leaves.append(leaf)
                continue
            replacement = None
            for candidate in self.fallbacks(leaf.subquery):
                if candidate not in job_tried:
                    replacement = candidate
                    break
            if replacement is None:
                abandoned.append(leaf.subquery.subquery_id)
                continue
            job_tried.add(replacement)
            moved.append(Reassignment(
                job_id=leaf.subquery.subquery_id,
                from_source=leaf.source_id,
                to_source=replacement,
                attempt=attempt,
            ))
            new_leaves.append(Retrieve(leaf.subquery, replacement))
        if not new_leaves:
            return plan, [], abandoned
        return standard_plan(new_leaves, k=query.k), moved, abandoned


def fallbacks_from_registry(registry, reputation=None) -> FallbackFn:
    """Standard fallback policy: domain candidates ranked by trust."""

    def fallback(subquery: Subquery) -> List[str]:
        descriptors = registry.candidates_for(subquery.domain)
        if reputation is None:
            return [d.source_id for d in descriptors]
        return [
            source_id
            for source_id, __ in reputation.ranked(
                [d.source_id for d in descriptors]
            )
        ]

    return fallback
