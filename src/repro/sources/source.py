"""Information sources: the independent systems of the agora.

Each source holds a collection, answers subqueries with its own matching
machinery, and exhibits the paper's §2 pathologies: partial coverage,
freshness lag, occasional wrong answers and load-dependent declines.
Sources also *advertise* their quality — optimistically, per
their ``overpromise`` bias — which is exactly why consumers need SLAs,
reputation and negotiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.data.items import InformationItem
from repro.net.failures import LoadModel, NodeHealth
from repro.qos.vector import QoSVector
from repro.query.model import Subquery
from repro.sim.rng import ScopedStreams
from repro.sources.index import CollectionIndex
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
        self._rng = streams.stream(f"source.{source_id}")
        self._index = CollectionIndex()
        # Prepared batch-scoring state per domain bucket, position for
        # position; buckets are append-only, so a block only ever extends.
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

    def _count_cache(self, event: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"source.block_cache.{event}").inc()

    def _block_for(self, domain: Optional[str]) -> CandidateBlock:
        """The prepared batch-scoring block for a domain bucket.

        The block's candidate order is the bucket's ingest order, so block
        positions are bucket positions.  The first lookup builds it; later
        ones append the items ingested since.
        """
        block = self._blocks.get(domain)
        if block is None:
            self._count_cache("misses")
            block = self.engine.prepare(self._index.bucket_items(domain))
            self._blocks[domain] = block
            return block
        new_items = self._index.bucket_items(domain, start=len(block))
        if new_items:
            block.extend(new_items)
            self._count_cache("extends")
        else:
            self._count_cache("hits")
        return block

    # ------------------------------------------------------------------
    # Participation
    # ------------------------------------------------------------------
    def accepts(self, consumer_id: str, now: float) -> Tuple[bool, str]:
        """Whether the source will serve ``consumer_id`` right now."""
        if self.health is not None and not self.health.is_up(self.node_id):
            return False, "unavailable"
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
    ) -> SourceAnswer:
        """Evaluate ``subquery`` against the visible collection.

        Returns a declined answer when the source refuses to participate.
        Match scores are the source's local engine scores, except that a
        fraction ``error_rate`` of them are corrupted to uniform noise.
        """
        ok, reason = self.accepts(consumer_id, now)
        if not ok:
            return SourceAnswer(
                source_id=self.source_id,
                subquery_id=subquery.subquery_id,
                declined=True,
                decline_reason=reason,
            )
        visible = self._index.visible_positions(now, subquery.domain)
        n_candidates = len(visible)
        ranked = self.engine.rank_block_topk(
            subquery.evidence_item(),
            self._block_for(subquery.domain),
            subquery.k,
            visible,
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
            f"domains={self.domains})"
        )
