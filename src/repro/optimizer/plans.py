"""Candidate plans and their evaluation.

A plan assigns each job one or more sources (replicating a job across
sources buys completeness at the price of extra cost).  Aggregation rules:

- response time: max over assignments (jobs run in parallel);
- completeness: per job, 1 − Π(1 − cᵢ) over its replicas; mean over jobs;
- freshness / correctness / trust: mean over assignments;
- price: sum of per-assignment prices.

The rules live in one columnar kernel, :func:`score_plans`, which scores a
batch of same-shaped plans (the same replicas per job) in one pass; a
single plan is a batch of one.  Its float order is what keeps a plan's
numbers bitwise equal however it is batched: the max, the sum and the
products run over each plan's own row of assignments in job order, and
the means are ``np.mean``'s arithmetic along that row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.optimizer.candidates import CandidateAssignment
from repro.qos.vector import QUALITY_DIMENSIONS, QoSVector, QoSWeights
from repro.query.algebra import PlanNode, Retrieve, standard_plan
from repro.query.model import Query
from repro.uncertainty.risk import RiskProfile, risk_neutral

#: Rows of an assignment matrix (see :func:`assignment_columns`).
RESPONSE_TIME, COMPLETENESS, FRESHNESS, CORRECTNESS, TRUST, COST, BREACH = range(7)


def assignment_columns(assignments: Sequence[CandidateAssignment]) -> np.ndarray:
    """The scored attributes of ``assignments`` as a (7, n) float array.

    Rows, indexed by the module constants: expected response time,
    completeness, freshness, correctness and trust, cost mean, breach risk.
    """
    return np.array(
        [
            (
                a.expected.response_time,
                a.expected.completeness,
                a.expected.freshness,
                a.expected.correctness,
                a.expected.trust,
                a.cost.mean,
                a.breach_risk,
            )
            for a in assignments
        ],
        dtype=float,
    ).T


@dataclass
class CandidatePlan:
    """An assignment of jobs to (one or more) sources each."""

    assignments: Dict[str, List[CandidateAssignment]]

    def __post_init__(self) -> None:
        if not self.assignments:
            raise ValueError("plan must cover at least one job")
        for job_id, replicas in self.assignments.items():
            if not replicas:
                raise ValueError(f"job {job_id} has no assigned source")
            sources = [r.source_id for r in replicas]
            if len(set(sources)) != len(sources):
                raise ValueError(f"job {job_id} assigns a source twice")

    # ------------------------------------------------------------------
    @property
    def job_ids(self) -> List[str]:
        """Sorted ids of the jobs this plan covers."""
        return sorted(self.assignments)

    @property
    def all_assignments(self) -> List[CandidateAssignment]:
        """Every assignment, grouped by job order."""
        flat = []
        for job_id in self.job_ids:
            flat.extend(self.assignments[job_id])
        return flat

    @property
    def source_ids(self) -> List[str]:
        """Sorted distinct sources the plan uses."""
        return sorted({a.source_id for a in self.all_assignments})

    def replication_factor(self) -> float:
        """Mean number of sources per job."""
        return len(self.all_assignments) / len(self.assignments)

    # ------------------------------------------------------------------
    def batch(self) -> Tuple[np.ndarray, Tuple[int, ...]]:
        """This plan as a batch of one: its (7, 1, n) assignment matrix and
        the number of replicas of each job, in job order."""
        matrix = assignment_columns(self.all_assignments)[:, np.newaxis, :]
        return matrix, tuple(len(self.assignments[job_id]) for job_id in self.job_ids)

    def expected_qos(self) -> QoSVector:
        """Aggregate the consumer's expected QoS for this plan."""
        return PlanColumns.aggregate(*self.batch()).qos(0)

    def expected_price(self, unit_price: float = 1.0) -> float:
        """Price proxy: cost-mean of each assignment times ``unit_price``."""
        return unit_price * float(PlanColumns.aggregate(*self.batch()).price[0])

    def breach_risk(self) -> float:
        """Probability at least one assignment breaches (independent)."""
        return float(PlanColumns.aggregate(*self.batch()).breach_risk[0])

    # ------------------------------------------------------------------
    def to_plan_tree(self, query: Query) -> PlanNode:
        """Materialise as an executable plan tree."""
        leaves = [
            Retrieve(assignment.subquery, assignment.source_id)
            for assignment in self.all_assignments
        ]
        return standard_plan(leaves, k=query.k, tau=query.threshold)

    def signature(self) -> tuple:
        """Hashable identity: which sources serve which jobs."""
        return tuple(
            (job_id, tuple(sorted(a.source_id for a in self.assignments[job_id])))
            for job_id in self.job_ids
        )


@dataclass(frozen=True)
class PlanEvaluation:
    """A plan scored under a user's preferences."""

    plan: CandidatePlan
    qos: QoSVector
    price: float
    utility: float
    risk_adjusted_utility: float
    breach_risk: float


@dataclass(frozen=True)
class PlanColumns:
    """Expected QoS, price and breach risk of a batch of plans, per plan."""

    response_time: np.ndarray
    #: (4, plans): the dimensions of ``QUALITY_DIMENSIONS``, in that order
    quality: np.ndarray
    price: np.ndarray
    breach_risk: np.ndarray

    @staticmethod
    def aggregate(matrix: np.ndarray, job_widths: Sequence[int]) -> "PlanColumns":
        """Aggregate a (7, plans, assignments) matrix by the module's rules.

        Each plan's assignments are grouped by job in job order,
        ``job_widths[j]`` replicas for job ``j``.
        """
        # The builtin max and sum fix the float semantics on every interpreter:
        # the first maximum, and CPython's own float sum (compensated from
        # 3.12 on), which no numpy reduction matches.
        response_time = list(map(max, matrix[RESPONSE_TIME].tolist()))
        price = list(map(sum, matrix[COST].tolist()))
        # Multiplicative reductions run left to right: Π(1 − c) per job and
        # Π(1 − b) per plan are the per-plan loops' products.
        job_starts = list(itertools.accumulate(job_widths[:-1], initial=0))
        misses = np.multiply.reduceat(1.0 - matrix[COMPLETENESS], job_starts, axis=1)
        # np.mean's own arithmetic: numpy's add-reduction along each row
        # (pairwise from 8 terms on), then one division.
        quality = np.empty((len(QUALITY_DIMENSIONS), matrix.shape[1]))
        quality[0] = np.add.reduce(1.0 - misses, axis=1) / len(job_widths)
        quality[1:] = np.add.reduce(matrix[FRESHNESS:TRUST + 1], axis=2) / matrix.shape[2]
        return PlanColumns(
            response_time=np.array(response_time, dtype=float),
            quality=quality,
            price=np.array(price, dtype=float),
            breach_risk=1.0 - np.multiply.reduce(1.0 - matrix[BREACH], axis=1),
        )

    def qos(self, index: int) -> QoSVector:
        """Plan ``index``'s expected QoS; raises if it is out of range."""
        return QoSVector(
            float(self.response_time[index]), *self.quality[:, index].tolist()
        )

    def out_of_range(self) -> np.ndarray:
        """Mask of the plans whose QoS :class:`QoSVector` would reject."""
        quality = self.quality
        return (self.response_time < 0) | ~((0.0 <= quality) & (quality <= 1.0)).all(axis=0)


@dataclass(frozen=True)
class PlanScores:
    """A batch of plans scored under one user's preferences."""

    columns: PlanColumns
    utility: np.ndarray
    risk_adjusted_utility: np.ndarray

    def evaluation(self, index: int, plan: CandidatePlan) -> PlanEvaluation:
        """Plan ``index`` of the batch as the evaluation of ``plan``."""
        return PlanEvaluation(
            plan=plan,
            qos=self.columns.qos(index),
            price=float(self.columns.price[index]),
            utility=float(self.utility[index]),
            risk_adjusted_utility=float(self.risk_adjusted_utility[index]),
            breach_risk=float(self.columns.breach_risk[index]),
        )


def _certainty_equivalents(
    profile: RiskProfile, utility: np.ndarray, degraded: np.ndarray, risk: np.ndarray
) -> np.ndarray:
    """``profile.certainty_equivalent([u, d], [1 - r, r])`` for every plan.

    Follows :class:`RiskProfile`'s clip/exp/log sequence step for step;
    the caller screens out the lotteries its range checks reject.
    """
    aversion = profile.aversion
    curved = abs(aversion) >= 1e-9
    # np.clip(x, 0, 1) on the values that reach it: a NaN is rejected by the
    # caller, and the sign of a zero cannot reach the result.
    outcomes = np.minimum(np.maximum((utility, degraded), 0.0), 1.0)
    if curved:
        scale = 1.0 - np.exp(-aversion)
        outcomes = (1.0 - np.exp(-aversion * outcomes)) / scale
    expected = (1.0 - risk) * outcomes[0] + risk * outcomes[1]
    value = np.minimum(np.maximum(expected, 0.0), 1.0)
    if curved:
        value = -np.log(1.0 - value * scale) / aversion
    return value


def score_plans(
    matrix: np.ndarray,
    job_widths: Sequence[int],
    weights: QoSWeights,
    price_sensitivity: float = 0.02,
    risk_profile: Optional[RiskProfile] = None,
    breach_penalty: float = 0.5,
) -> PlanScores:
    """Score a batch of plans (see :func:`evaluate_plan`) in one pass.

    ``matrix`` and ``job_widths`` are as for :meth:`PlanColumns.aggregate`.
    Every plan's numbers are bitwise those of scoring it alone, and an
    invalid batch raises the ``ValueError`` of its first invalid plan.
    """
    if risk_profile is None:
        risk_profile = risk_neutral()
    columns = PlanColumns.aggregate(matrix, job_widths)
    invalid = columns.out_of_range()
    if invalid[0]:
        columns.qos(0)  # the first plan's QoS is checked before the weights
    weights = weights.normalised()
    half_life = weights.response_half_life
    risk = columns.breach_risk
    # Rows flagged invalid may hold garbage; they raise below.
    with np.errstate(all="ignore"):
        # scalarize(), term for term
        utility = weights.response_time * (half_life / (half_life + columns.response_time))
        for dim, column in zip(QUALITY_DIMENSIONS, columns.quality):
            utility = utility + getattr(weights, dim) * column
        utility = utility - price_sensitivity * columns.price
        utility = np.where(utility > 0.0, utility, 0.0)
        degraded = utility * breach_penalty
        adjusted = _certainty_equivalents(risk_profile, utility, degraded, risk)
        # A superset of the lotteries the risk profile rejects: with the
        # risk and both outcomes in [0, 1], the probabilities sum to 1 and
        # the expected utility lies in [0, 1] up to rounding.
        lottery = np.array((risk, utility, degraded))
        invalid |= ~((0.0 <= lottery) & (lottery <= 1.0)).all(axis=0)
    for index in np.flatnonzero(invalid).tolist():
        # The per-plan constructors raise this plan's error, if it has one.
        columns.qos(index)
        plan_risk = float(risk[index])
        risk_profile.certainty_equivalent(
            [float(utility[index]), float(degraded[index])],
            [1.0 - plan_risk, plan_risk],
        )
    return PlanScores(columns, utility, adjusted)


def evaluate_plan(
    plan: CandidatePlan,
    weights: QoSWeights,
    price_sensitivity: float = 0.02,
    risk_profile: Optional[RiskProfile] = None,
    breach_penalty: float = 0.5,
) -> PlanEvaluation:
    """Score ``plan`` for a user.

    The *risk-adjusted* utility treats the plan as a lottery: with
    probability (1 − breach risk) the expected utility materialises; with
    probability breach-risk only ``breach_penalty`` of it does.  The user's
    risk profile turns that lottery into a certainty equivalent — risk
    -averse users pay a premium to avoid risky plans (§2, §5).
    """
    scores = score_plans(
        *plan.batch(), weights,
        price_sensitivity=price_sensitivity,
        risk_profile=risk_profile,
        breach_penalty=breach_penalty,
    )
    return scores.evaluation(0, plan)


@dataclass(frozen=True)
class PlanScorer:
    """A user's preferences bound into a plan evaluator.

    Calling it scores one plan; :meth:`score_batch` scores a batch.
    """

    weights: QoSWeights
    price_sensitivity: float = 0.02
    risk_profile: Optional[RiskProfile] = None

    def __call__(self, plan: CandidatePlan) -> PlanEvaluation:
        return evaluate_plan(
            plan, self.weights,
            price_sensitivity=self.price_sensitivity,
            risk_profile=self.risk_profile,
        )

    def score_batch(self, matrix: np.ndarray, job_widths: Sequence[int]) -> PlanScores:
        """Score a batch of plans (see :func:`score_plans`)."""
        return score_plans(
            matrix, job_widths, self.weights,
            price_sensitivity=self.price_sensitivity,
            risk_profile=self.risk_profile,
        )
