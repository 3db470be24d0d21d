"""Query model, plan algebra, execution, and ground-truth auditing.

Public API:

- :class:`Query`, :class:`Subquery`, :class:`QueryKind`, :func:`decompose`.
- Plan algebra: :class:`Retrieve`, :class:`Merge`, :class:`TopK`,
  :func:`standard_plan`.
- :class:`QueryExecutor`, :class:`ExecutionContext`,
  :class:`ExecutionResult`.
- :class:`RelevanceOracle` — latent ground-truth auditing (completeness,
  correctness, freshness).
"""

from repro.query.adaptive import (
    AdaptiveExecutor,
    AdaptiveResult,
    Reassignment,
    fallbacks_from_registry,
)
from repro.query.algebra import (
    Merge,
    PlanNode,
    Retrieve,
    TopK,
    standard_plan,
)
from repro.query.execution import ExecutionContext, ExecutionResult, QueryExecutor
from repro.query.model import (
    Query,
    QueryKind,
    Subquery,
    decompose,
    reset_query_ids,
)
from repro.query.oracle import RelevanceOracle

__all__ = [
    "AdaptiveExecutor",
    "AdaptiveResult",
    "ExecutionContext",
    "ExecutionResult",
    "Merge",
    "PlanNode",
    "Query",
    "QueryExecutor",
    "Reassignment",
    "QueryKind",
    "RelevanceOracle",
    "Retrieve",
    "Subquery",
    "TopK",
    "decompose",
    "fallbacks_from_registry",
    "reset_query_ids",
    "standard_plan",
]
