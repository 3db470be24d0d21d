"""Query optimization as trading (paper §4).

Public API:

- Candidates: :class:`CandidateEnumerator`, :class:`CandidateAssignment`,
  :func:`discount_by_trust`.
- Plans: :class:`CandidatePlan`, :class:`PlanEvaluation`,
  :class:`PlanScorer`, :func:`evaluate_plan`.
- Pareto: :func:`pareto_front`, :func:`pareto_indices`, :func:`dominates`,
  :func:`hypervolume`, :func:`regret`.
- Search: :class:`ExhaustiveSearch`, :class:`GreedySearch`,
  :class:`LocalSearch`, :class:`SearchResult`, :func:`make_evaluator`.
- Baselines: :class:`RandomPlanner`, :class:`CostGreedyPlanner`,
  :class:`QualityGreedyPlanner`, :class:`RoundRobinPlanner`,
  :func:`baseline_suite`.
- Trading: :class:`TradingOptimizer`, :class:`SourceBidder`,
  :class:`NegotiatedPlan`.
"""

from repro.optimizer.baselines import (
    CostGreedyPlanner,
    QualityGreedyPlanner,
    RandomPlanner,
    RoundRobinPlanner,
    baseline_suite,
)
from repro.optimizer.candidates import (
    CandidateAssignment,
    CandidateEnumerator,
    discount_by_trust,
)
from repro.optimizer.parametric import (
    DEFAULT_REGIMES,
    LoadRegime,
    ParametricPlan,
    ParametricPlanner,
    scale_candidate,
)
from repro.optimizer.pareto import (
    dominates,
    hypervolume,
    pareto_front,
    pareto_indices,
    regret,
)
from repro.optimizer.plans import CandidatePlan, PlanEvaluation, PlanScorer, evaluate_plan
from repro.optimizer.search import (
    EvolutionarySearch,
    ExhaustiveSearch,
    GreedySearch,
    LocalSearch,
    SearchResult,
    make_evaluator,
)
from repro.optimizer.trading import NegotiatedPlan, SourceBidder, TradingOptimizer

__all__ = [
    "CandidateAssignment",
    "CandidateEnumerator",
    "CandidatePlan",
    "CostGreedyPlanner",
    "DEFAULT_REGIMES",
    "EvolutionarySearch",
    "ExhaustiveSearch",
    "GreedySearch",
    "LoadRegime",
    "LocalSearch",
    "NegotiatedPlan",
    "ParametricPlan",
    "ParametricPlanner",
    "PlanEvaluation",
    "PlanScorer",
    "QualityGreedyPlanner",
    "RandomPlanner",
    "RoundRobinPlanner",
    "SearchResult",
    "SourceBidder",
    "TradingOptimizer",
    "baseline_suite",
    "discount_by_trust",
    "dominates",
    "evaluate_plan",
    "hypervolume",
    "make_evaluator",
    "pareto_front",
    "pareto_indices",
    "regret",
    "scale_candidate",
]
