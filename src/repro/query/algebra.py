"""Logical/physical plan algebra.

A query plan is a small operator tree: ``Retrieve`` leaves (one subquery
assigned to one source) combined by ``Merge``, refined by ``TopK``.  The
optimizer (:mod:`repro.optimizer`) chooses the ``Retrieve`` assignments;
the executor walks the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.query.model import Subquery


class PlanNode:
    """Base class for plan operators."""

    children: List["PlanNode"]

    def leaves(self) -> List["Retrieve"]:
        """All ``Retrieve`` leaves in left-to-right order."""
        found: List[Retrieve] = []
        self._collect_leaves(found)
        return found

    def _collect_leaves(self, accumulator: List["Retrieve"]) -> None:
        for child in self.children:
            child._collect_leaves(accumulator)


@dataclass
class Retrieve(PlanNode):
    """Leaf: ask ``source_id`` to evaluate ``subquery``."""

    subquery: Subquery
    source_id: str
    children: List[PlanNode] = field(default_factory=list, repr=False)

    def _collect_leaves(self, accumulator: List["Retrieve"]) -> None:
        accumulator.append(self)

    @property
    def job_id(self) -> str:
        """Stable id: subquery id @ source id."""
        return f"{self.subquery.subquery_id}@{self.source_id}"


@dataclass
class Merge(PlanNode):
    """Union of children's result sets (duplicates keep best probability)."""

    children: List[PlanNode]

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("Merge needs at least one child")


@dataclass
class TopK(PlanNode):
    """Keep the k most probable results of the child."""

    child: PlanNode
    k: int
    children: List[PlanNode] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        self.children = [self.child]


def standard_plan(assignments: Sequence[Retrieve], k: int) -> PlanNode:
    """The canonical shape: Merge → TopK."""
    if not assignments:
        raise ValueError("plan needs at least one retrieval")
    return TopK(Merge(children=list(assignments)), k)
