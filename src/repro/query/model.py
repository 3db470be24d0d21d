"""Query model.

Queries in the agora are richer than SQL: they may carry a *reference
item* ("compare this jewelry image with pertinent information"), a bag of
terms, a QoS requirement and the user's trade-off weights.  Like goods in
a market, a query is a commodity that can be split (decomposed per domain)
and traded (each part contracted to a source).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.items import InformationItem, TextDocument, make_item_id
from repro.qos.vector import QoSRequirement, QoSWeights

_QUERY_COUNTER = itertools.count()


class QueryKind(Enum):
    """What evidence a query carries."""
    SIMILARITY = "similarity"  # match against a reference item
    TOPIC = "topic"  # match against a bag of terms
    HYBRID = "hybrid"  # both


@dataclass
class Query:
    """A consumer's information request.

    Attributes
    ----------
    kind:
        What evidence the query carries (reference item, terms, or both).
    reference_item:
        The example object for similarity queries.
    terms:
        Term bag for topic queries.
    target_domains:
        Restrict to these domains; ``None`` means all domains.
    k:
        Number of results wanted.
    requirement / weights:
        The QoS contract bounds and the user's trade-off weights.
    intent_latent:
        Ground-truth topic vector of the *information need*.  Used only by
        experiment oracles to score result relevance — never by matching.
    """

    kind: QueryKind
    reference_item: Optional[InformationItem] = None
    terms: Optional[Dict[str, int]] = None
    target_domains: Optional[Tuple[str, ...]] = None
    k: int = 10
    requirement: QoSRequirement = field(default_factory=QoSRequirement)
    weights: QoSWeights = field(default_factory=QoSWeights)
    issuer_id: str = ""
    intent_latent: Optional[np.ndarray] = None
    query_id: int = field(default_factory=lambda: next(_QUERY_COUNTER))

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.kind in (QueryKind.SIMILARITY, QueryKind.HYBRID) and self.reference_item is None:
            raise ValueError(f"{self.kind.value} query needs a reference_item")
        if self.kind in (QueryKind.TOPIC, QueryKind.HYBRID) and not self.terms:
            raise ValueError(f"{self.kind.value} query needs terms")

    # ------------------------------------------------------------------
    def evidence_item(self) -> InformationItem:
        """The item to hand the matching engine.

        For topic queries a synthetic text document is built from the
        terms; for similarity/hybrid queries the reference item is used.
        """
        if self.reference_item is not None:
            return self.reference_item
        assert self.terms is not None
        latent = self.intent_latent if self.intent_latent is not None else np.array([1.0])
        return TextDocument(
            item_id=make_item_id("query"),
            domain="query",
            latent=latent,
            terms=dict(self.terms),
        )

    def restricted_to(self, domain: str) -> "Subquery":
        """The per-domain part of this query (query decomposition)."""
        return Subquery(parent=self, domain=domain)

    def targets(self, domain: str) -> bool:
        """Whether this query targets ``domain``."""
        return self.target_domains is None or domain in self.target_domains

    def with_requirement(self, requirement: QoSRequirement) -> "Query":
        """A copy of the query under a different QoS requirement."""
        return replace(self, requirement=requirement, query_id=next(_QUERY_COUNTER))


@dataclass(frozen=True)
class Subquery:
    """One domain-restricted piece of a decomposed query."""

    parent: Query
    domain: str

    @property
    def subquery_id(self) -> str:
        """Stable identifier: parent query id + domain."""
        return f"q{self.parent.query_id}:{self.domain}"

    @property
    def k(self) -> int:
        """Result count inherited from the parent query."""
        return self.parent.k

    def evidence_item(self) -> InformationItem:
        """The parent query's evidence item."""
        return self.parent.evidence_item()


def decompose(query: Query, available_domains: Sequence[str]) -> List[Subquery]:
    """Split ``query`` into one subquery per targeted available domain.

    "Queries have a complex structure and can be broken into smaller
    parts" (§4) — this is the library's decomposition: one retrieval job
    per domain, merged afterwards.
    """
    domains = [d for d in sorted(set(available_domains)) if query.targets(d)]
    return [query.restricted_to(domain) for domain in domains]


def reset_query_ids() -> None:
    """Reset the query-id counter (tests only)."""
    global _QUERY_COUNTER
    _QUERY_COUNTER = itertools.count()
