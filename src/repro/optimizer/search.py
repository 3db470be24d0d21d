"""Plan search: exhaustive, greedy, and local-search planners.

"Finding the appropriate source in the Open Agora from which to obtain
each piece of the relevant information corresponds to a query optimization
problem that is beyond current technology" (§4).  The search space is the
product of per-job candidate sets (optionally with replication).  Small
spaces are enumerated exhaustively; larger ones are handled by greedy
construction plus hill-climbing swaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.optimizer.candidates import CandidateAssignment
from repro.optimizer.pareto import pareto_front, pareto_indices
from repro.optimizer.plans import (
    CandidatePlan,
    PlanEvaluation,
    PlanScorer,
    assignment_columns,
)
from repro.qos.vector import QoSWeights
from repro.sim.rng import ScopedStreams
from repro.uncertainty.risk import RiskProfile

CandidateTable = Dict[str, List[CandidateAssignment]]
Evaluator = Callable[[CandidatePlan], PlanEvaluation]


def make_evaluator(
    weights: QoSWeights,
    price_sensitivity: float = 0.02,
    risk_profile: Optional[RiskProfile] = None,
) -> PlanScorer:
    """Bind user preferences into a plan evaluator."""
    return PlanScorer(weights, price_sensitivity, risk_profile)


def check_table(table: CandidateTable) -> List[str]:
    """The sorted job ids of a searchable candidate table.

    Raises ``ValueError`` for an empty table or a job with no candidates.
    """
    if not table:
        raise ValueError("candidate table is empty")
    job_ids = sorted(table)
    for job_id in job_ids:
        if not table[job_id]:
            raise ValueError(f"job {job_id} has no candidates")
    return job_ids


@dataclass
class SearchResult:
    """Output of one planner run."""

    best: PlanEvaluation
    front: List[PlanEvaluation] = field(default_factory=list)
    explored: int = 0


class ExhaustiveSearch:
    """Enumerates every single-source-per-job plan (plus replications).

    Parameters
    ----------
    max_plans:
        Refuse to enumerate spaces bigger than this (combinatorial guard).
    max_replication:
        Also consider assigning each job its best-r candidates together,
        for r up to this value.
    """

    def __init__(self, max_plans: int = 20000, max_replication: int = 1):
        if max_plans < 1:
            raise ValueError("max_plans must be >= 1")
        if max_replication < 1:
            raise ValueError("max_replication must be >= 1")
        self.max_plans = max_plans
        self.max_replication = max_replication

    def search(self, table: CandidateTable, evaluator: PlanScorer) -> SearchResult:
        """Search the candidate table; returns the best plan and front.

        ``evaluator`` (what :func:`make_evaluator` returns) scores the
        whole single-source plan space in one batch; only the best plan
        and the front become objects.
        """
        if not isinstance(evaluator, PlanScorer):
            raise TypeError("ExhaustiveSearch needs the PlanScorer make_evaluator returns")
        job_ids = check_table(table)
        sizes = [len(table[job_id]) for job_id in job_ids]
        space = math.prod(sizes)
        if space > self.max_plans:
            raise ValueError(
                f"plan space {space} exceeds max_plans={self.max_plans}; "
                "use GreedySearch or LocalSearch"
            )
        # Plan i takes candidate grid[i, j] for job j, in itertools.product
        # order: the last job varies fastest.
        grid = np.indices(sizes).reshape(len(sizes), -1).T
        matrix = np.stack(
            [
                assignment_columns(table[job_id])[:, grid[:, j]]
                for j, job_id in enumerate(job_ids)
            ],
            axis=-1,
        )
        scores = evaluator.score_batch(matrix, [1] * len(job_ids))
        replicated = [evaluator(plan) for plan in self._replicated_plans(table)]

        def evaluation(index: int) -> PlanEvaluation:
            if index >= space:
                return replicated[index - space]
            plan = CandidatePlan({
                job_id: [table[job_id][grid[index, j]]]
                for j, job_id in enumerate(job_ids)
            })
            return scores.evaluation(index, plan)

        adjusted = np.append(
            scores.risk_adjusted_utility, [e.risk_adjusted_utility for e in replicated]
        )
        prices = scores.columns.price.tolist() + [e.price for e in replicated]
        # max() by (risk-adjusted utility, -price): the first such plan wins.
        tied = np.flatnonzero(adjusted == adjusted.max())
        best = int(tied[np.argmin(np.asarray(prices)[tied])])
        utilities = scores.utility.tolist() + [e.utility for e in replicated]
        return SearchResult(
            best=evaluation(best),
            front=[evaluation(i) for i in pareto_indices(utilities, prices)],
            explored=space + len(replicated),
        )

    def _replicated_plans(self, table: CandidateTable) -> Iterator[CandidatePlan]:
        """Plans that replicate every job across its top-r candidates."""
        for r in range(2, self.max_replication + 1):
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
                yield CandidatePlan(assignments)


class GreedySearch:
    """Chooses each job's source independently by local evaluation."""

    def search(self, table: CandidateTable, evaluator: Evaluator) -> SearchResult:
        """Search the candidate table; returns the best plan and front."""
        check_table(table)
        assignments: Dict[str, List[CandidateAssignment]] = {}
        explored = 0
        for job_id, candidates in sorted(table.items()):
            best_candidate = None
            best_value = float("-inf")
            for candidate in candidates:
                trial = CandidatePlan({job_id: [candidate]})
                value = evaluator(trial).risk_adjusted_utility
                explored += 1
                if value > best_value:
                    best_value = value
                    best_candidate = candidate
            assignments[job_id] = [best_candidate]
        plan = CandidatePlan(assignments)
        evaluation = evaluator(plan)
        return SearchResult(best=evaluation, front=[evaluation], explored=explored)


class EvolutionarySearch:
    """A (μ+λ) evolutionary search over source assignments.

    For plan spaces too large to enumerate: individuals are per-job source
    choices; mutation re-assigns a random job; uniform crossover mixes two
    parents' assignments.  Selection is by risk-adjusted utility; the
    non-dominated individuals encountered anywhere along the run form the
    returned Pareto front.
    """

    def __init__(
        self,
        streams: "ScopedStreams",
        population_size: int = 16,
        generations: int = 20,
        mutation_rate: float = 0.3,
    ):
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        self._rng = streams.stream("evolutionary-search")
        self.population_size = population_size
        self.generations = generations
        self.mutation_rate = mutation_rate

    def _random_individual(self, table: CandidateTable) -> Dict[str, CandidateAssignment]:
        return {
            job_id: candidates[int(self._rng.integers(len(candidates)))]
            for job_id, candidates in sorted(table.items())
        }

    def _mutate(self, individual, table):
        child = dict(individual)
        job_ids = sorted(table)
        job_id = job_ids[int(self._rng.integers(len(job_ids)))]
        candidates = table[job_id]
        child[job_id] = candidates[int(self._rng.integers(len(candidates)))]
        return child

    def _crossover(self, a, b, table):
        child = {}
        for job_id in sorted(table):
            child[job_id] = a[job_id] if self._rng.random() < 0.5 else b[job_id]
        return child

    def search(self, table: CandidateTable, evaluator: Evaluator) -> SearchResult:
        """Search the candidate table; returns the best plan and front."""
        check_table(table)
        explored = 0
        archive: Dict[tuple, PlanEvaluation] = {}

        def evaluate(individual) -> PlanEvaluation:
            nonlocal explored
            plan = CandidatePlan({j: [c] for j, c in individual.items()})
            evaluation = evaluator(plan)
            explored += 1
            archive[plan.signature()] = evaluation
            return evaluation

        population = [
            self._random_individual(table) for __ in range(self.population_size)
        ]
        scored = [(evaluate(ind), ind) for ind in population]
        for __ in range(self.generations):
            offspring = []
            for __child in range(self.population_size):
                i = int(self._rng.integers(len(scored)))
                j = int(self._rng.integers(len(scored)))
                parent_a, parent_b = scored[i][1], scored[j][1]
                child = self._crossover(parent_a, parent_b, table)
                if self._rng.random() < self.mutation_rate:
                    child = self._mutate(child, table)
                offspring.append((evaluate(child), child))
            scored = sorted(
                scored + offspring,
                key=lambda pair: -pair[0].risk_adjusted_utility,
            )[: self.population_size]
        best = scored[0][0]
        return SearchResult(
            best=best,
            front=pareto_front(list(archive.values())),
            explored=explored,
        )


class LocalSearch:
    """Greedy construction followed by best-improvement swaps.

    Each step tries replacing one job's source by an alternative; stops at
    a local optimum or after ``max_iterations`` sweeps.
    """

    def __init__(self, max_iterations: int = 50):
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.max_iterations = max_iterations

    def search(self, table: CandidateTable, evaluator: Evaluator) -> SearchResult:
        """Search the candidate table; returns the best plan and front."""
        seed = GreedySearch().search(table, evaluator)
        current = seed.best
        explored = seed.explored
        for __ in range(self.max_iterations):
            improved = False
            for job_id in sorted(table):
                for candidate in table[job_id]:
                    if candidate.source_id == current.plan.assignments[job_id][0].source_id:
                        continue
                    assignments = {
                        j: list(replicas)
                        for j, replicas in current.plan.assignments.items()
                    }
                    assignments[job_id] = [candidate]
                    trial = evaluator(CandidatePlan(assignments))
                    explored += 1
                    if trial.risk_adjusted_utility > current.risk_adjusted_utility + 1e-12:
                        current = trial
                        improved = True
            if not improved:
                break
        return SearchResult(best=current, front=[current], explored=explored)
