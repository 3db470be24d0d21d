"""Information sources: the independent systems of the agora.

Each source holds a collection, answers subqueries with its own matching
machinery, and exhibits the paper's §2 pathologies: partial coverage,
freshness lag, occasional wrong answers, load-dependent declines, and
blacklists.  Sources also *advertise* their quality — optimistically, per
their ``overpromise`` bias — which is exactly why consumers need SLAs,
reputation and negotiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple


from repro.data.items import InformationItem
from repro.net.failures import LoadModel, NodeHealth
from repro.qos.vector import QoSVector
from repro.query.model import PruneHint, Subquery
from repro.sim.rng import ScopedStreams
from repro.sources.index import CollectionIndex
from repro.trust.blacklist import Blacklist
from repro.uncertainty.estimates import UncertainEstimate
from repro.uncertainty.matching import CandidateBlock, MatchingEngine

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

TRUST_CLASSES = ("well-known", "ordinary", "dubious")


@dataclass(frozen=True)
class SourceQuality:
    """Ground-truth quality parameters of one source.

    Attributes
    ----------
    coverage:
        Probability an item offered to the source is actually indexed.
    freshness_lag:
        Mean delay before an ingested item becomes visible to queries.
    error_rate:
        Probability a returned match is corrupted (its score is noise).
    trust_class:
        Coarse a-priori trust bucket (affects defaults, not behaviour).
    overpromise:
        How much the source inflates its advertised quality, >= 0.
        0 = honest; 0.3 = advertises 30% rosier than reality.
    """

    coverage: float = 0.9
    freshness_lag: float = 5.0
    error_rate: float = 0.05
    trust_class: str = "ordinary"
    overpromise: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError("coverage must be in [0, 1]")
        if self.freshness_lag < 0:
            raise ValueError("freshness_lag must be non-negative")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")
        if self.trust_class not in TRUST_CLASSES:
            raise ValueError(f"trust_class must be one of {TRUST_CLASSES}")
        if self.overpromise < 0:
            raise ValueError("overpromise must be non-negative")


@dataclass
class SourceAnswer:
    """A source's response to one subquery."""

    source_id: str
    subquery_id: str
    matches: List[Tuple[InformationItem, float]] = field(default_factory=list)
    service_time: float = 0.0
    declined: bool = False
    decline_reason: str = ""
    candidates_scanned: int = 0

    @property
    def size(self) -> int:
        """Number of matches returned."""
        return len(self.matches)


class InformationSource:
    """One independent information system in the agora.

    Parameters
    ----------
    source_id:
        Unique identifier (also used as the reputation subject).
    node_id:
        The overlay node this source lives on.
    domains:
        Content domains this source serves.
    quality:
        Ground-truth behaviour parameters.
    engine:
        The matching engine this source uses locally.  Different sources
        may use different feature sets — source heterogeneity is a §2
        uncertainty in its own right.
    streams:
        RNG scope (coverage drops, corruption, lag draws).
    """

    #: base service time charged per answered subquery
    STARTUP_TIME = 0.05
    #: additional service time per candidate item scanned
    PER_CANDIDATE_TIME = 0.002

    def __init__(
        self,
        source_id: str,
        node_id: str,
        domains: Sequence[str],
        quality: SourceQuality,
        engine: MatchingEngine,
        streams: ScopedStreams,
        load: Optional[LoadModel] = None,
        health: Optional[NodeHealth] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ):
        if not domains:
            raise ValueError("source must serve at least one domain")
        self.source_id = source_id
        self.node_id = node_id
        self.domains = tuple(sorted(set(domains)))
        self.quality = quality
        self.engine = engine
        self.load = load
        self.health = health
        self.metrics = metrics
        self.blacklist = Blacklist(source_id)
        self._rng = streams.stream(f"source.{source_id}")
        self._index = CollectionIndex()
        # Prepared batch-scoring state per domain bucket; kept coherent
        # with the index via its dirty_from/checkpoint protocol.
        self._blocks: Dict[Optional[str], CandidateBlock] = {}

    # ------------------------------------------------------------------
    # Collection management
    # ------------------------------------------------------------------
    def ingest(
        self,
        items: Sequence[InformationItem],
        now: float = 0.0,
        immediate: bool = False,
    ) -> int:
        """Offer items to the source; returns how many it indexed.

        Coverage decides whether each item is indexed at all; indexed
        items become visible after an exponential freshness lag.
        ``immediate`` skips the lag — used for historical corpora whose
        publication delay has already elapsed before the simulation start.
        """
        indexed = 0
        for item in items:
            if self._rng.random() >= self.quality.coverage:
                continue
            if immediate or self.quality.freshness_lag <= 0:
                lag = 0.0
            else:
                lag = float(self._rng.exponential(self.quality.freshness_lag))
            self._index.add(item, now + lag)
            indexed += 1
        return indexed

    def visible_items(self, now: float, domain: Optional[str] = None) -> List[InformationItem]:
        """Items queryable at virtual time ``now``."""
        return self._index.visible_items(now, domain)

    @property
    def collection_size(self) -> int:
        """Number of indexed (possibly not yet visible) items."""
        return self._index.size

    def _count_cache(self, event: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"source.block_cache.{event}").inc()

    def _block_for(self, domain: Optional[str]) -> CandidateBlock:
        """The prepared batch-scoring block for a domain bucket.

        The block's candidate order is the bucket's ``(visible_at, seq)``
        order, so "everything visible at ``now``" is always a prefix.
        Appends past the cached length extend the block in place; an
        insertion inside it (a late item becoming visible early) rebuilds.
        """
        cached = self._blocks.get(domain)
        dirty = self._index.dirty_from(domain)
        if cached is not None and (dirty is None or dirty >= len(cached)):
            bucket = self._index.bucket_items(domain)
            if len(bucket) > len(cached):
                cached.extend(bucket[len(cached):])
                self._count_cache("extends")
            else:
                self._count_cache("hits")
            self._index.checkpoint(domain)
            return cached
        self._count_cache("rebuilds" if cached is not None else "misses")
        block = self.engine.prepare(self._index.bucket_items(domain))
        self._blocks[domain] = block
        self._index.checkpoint(domain)
        return block

    # ------------------------------------------------------------------
    # Participation
    # ------------------------------------------------------------------
    def accepts(self, consumer_id: str, now: float) -> Tuple[bool, str]:
        """Whether the source will serve ``consumer_id`` right now."""
        if self.health is not None and not self.health.is_up(self.node_id):
            return False, "unavailable"
        if self.blacklist.is_banned(consumer_id, now):
            return False, "blacklisted"
        if self.load is not None and self.load.declines(self.node_id):
            return False, "overloaded"
        return True, ""

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def answer(
        self,
        subquery: Subquery,
        now: float,
        consumer_id: str = "",
        prune: Optional[PruneHint] = None,
    ) -> SourceAnswer:
        """Evaluate ``subquery`` against the visible collection.

        Returns a declined answer when the source refuses to participate.
        Match scores are the source's local engine scores, except that a
        fraction ``error_rate`` of them are corrupted to uniform noise.

        A :class:`~repro.query.model.PruneHint` is a post-filter on the
        ranked list: the source keeps ``rank[:k_cap]`` and drops scores
        under the floor, which the enclosing plan nodes would drop
        anyway.  The hint is honoured only for exact (``error_rate == 0``)
        sources — ranking happens *before* corruption, so a corrupted
        score could cross the floor in either direction and the floor
        filter must then stay on the consumer's side.
        """
        ok, reason = self.accepts(consumer_id, now)
        if not ok:
            return SourceAnswer(
                source_id=self.source_id,
                subquery_id=subquery.subquery_id,
                declined=True,
                decline_reason=reason,
            )
        n_candidates = self._index.visible_count(now, domain=subquery.domain)
        k_returned = subquery.k
        floor = 0.0
        if prune is not None and self.quality.error_rate == 0.0:
            if prune.k_cap is not None:
                k_returned = min(k_returned, prune.k_cap)
            floor = prune.score_floor
        ranked = self.engine.rank_block_topk(
            subquery.evidence_item(),
            self._block_for(subquery.domain),
            k_returned,
            limit=n_candidates,
            score_floor=floor,
        )
        matches: List[Tuple[InformationItem, float]] = []
        if self.quality.error_rate > 0.0:
            # Guarded so exact sources draw nothing from their stream here.
            for item, score in ranked:
                if self._rng.random() < self.quality.error_rate:
                    score = float(self._rng.random())
                matches.append((item, score))
        else:
            matches.extend(ranked)
        service_time = self.STARTUP_TIME + self.PER_CANDIDATE_TIME * n_candidates
        if self.load is not None:
            service_time *= self.load.service_slowdown(self.node_id)
        return SourceAnswer(
            source_id=self.source_id,
            subquery_id=subquery.subquery_id,
            matches=matches,
            service_time=service_time,
            candidates_scanned=n_candidates,
        )

    # ------------------------------------------------------------------
    # Estimation and advertising
    # ------------------------------------------------------------------
    def true_quality_vector(self, now: float, domain: str) -> QoSVector:
        """The QoS this source would actually deliver on average."""
        visible = self._index.visible_count(now, domain)
        total = self._index.domain_size(domain)
        visibility = visible / total if total else 0.0
        return QoSVector(
            response_time=self.STARTUP_TIME + self.PER_CANDIDATE_TIME * visible,
            completeness=self.quality.coverage * visibility,
            freshness=1.0 / (1.0 + self.quality.freshness_lag / 10.0),
            correctness=1.0 - self.quality.error_rate,
            trust=1.0,  # trust is assigned by the consumer's reputation view
        )

    def cost_estimate(self, subquery: Subquery, now: float) -> UncertainEstimate:
        """Uncertain estimate of service time for ``subquery``."""
        candidates = self._index.visible_count(now, domain=subquery.domain)
        mean = self.STARTUP_TIME + self.PER_CANDIDATE_TIME * candidates
        if self.load is not None:
            mean *= self.load.service_slowdown(self.node_id)
        return UncertainEstimate(mean=mean, std=0.3 * mean, low=0.0, high=4.0 * mean)

    def advertised_quality(self, now: float, domain: str) -> QoSVector:
        """What the source *claims* it delivers (optimism applied)."""
        truth = self.true_quality_vector(now, domain)
        boost = 1.0 + self.quality.overpromise
        return QoSVector(
            response_time=truth.response_time / boost,
            completeness=min(1.0, truth.completeness * boost),
            freshness=min(1.0, truth.freshness * boost),
            correctness=min(1.0, truth.correctness * boost),
            trust=truth.trust,
        )

    def __repr__(self) -> str:
        return (
            f"InformationSource({self.source_id!r}, node={self.node_id!r}, "
            f"domains={self.domains}, items={self.collection_size})"
        )
