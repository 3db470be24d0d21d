"""Matching engines for heterogeneous objects.

Section 2 of the paper asks three escalating questions: how to match two
images (feature-set uncertainty), how to match *compound* objects ("a web
page of a fashion magazine with an auction catalog"), and how to match
objects *of different types* ("an image of a jewel matching an article").
This module answers all three:

- :class:`TextMatcher` — cosine over sublinear-TF term bags.
- :class:`MediaMatcher` — cosine over one observable feature set.
- :class:`ConceptLifter` — a learned linear map from observable features
  into the shared topic (concept) space, fit by least squares on a labelled
  sample; enables cross-type comparison.
- :class:`CrossTypeMatcher` — lifts both objects into concept space.
- :class:`CompoundMatcher` — recursive best-part alignment with weights.
- :class:`MatchingEngine` — dispatches on item types.

Every matcher exposes a pairwise ``score``; the leaf matchers also have
a batched ``score_many``, and :class:`CandidateBlock` batches all of them
(compound alignment included) over a prepared pool.  The batch path
computes query-side state (TF bag, lift, feature vector) once per call
instead of once per pair, scores candidates through the einsum and
term-column kernels of :mod:`repro.uncertainty.similarity`, and memoizes
per-item derived state in bounded LRU caches.  The contract — enforced by
property tests — is *exact* float parity: ``score_many(q, cs)[i]`` is
bitwise equal to ``score(q, cs[i])``, so ``rank`` and ``rank_pairwise``
return identical lists.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.data.features import FeatureExtractor
from repro.data.items import (
    CompoundObject,
    InformationItem,
    MediaObject,
    TextDocument,
)
from repro.data.vocabulary import Vocabulary
from repro.uncertainty.similarity import (
    CompactBag,
    TermColumns,
    TermIds,
    batch_dot_kernel,
    batch_nonnegative_cosine,
    compact_cosine,
    dot_kernel,
    nonnegative_cosine,
    sublinear_tf,
)

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

#: default bound for per-item derived-state caches (vectors are tiny, so
#: this is a few MB at most; long simulations stop leaking memory)
DEFAULT_CACHE_SIZE = 8192


class LruCache:
    """A bounded mapping with LRU eviction and hit/miss counters.

    Keys are item ids: derived state (TF bags, features, concept lifts) is
    deterministic per item, so entries never go stale — the bound exists
    to cap memory, not to expire values.  When a metrics registry is
    bound, hits/misses/evictions are mirrored into
    ``matching.cache.<name>.*`` counters.
    """

    def __init__(self, name: str, maxsize: int = DEFAULT_CACHE_SIZE):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[object, object]" = OrderedDict()
        self._metrics: Optional["MetricsRegistry"] = None

    def bind_metrics(self, metrics: Optional["MetricsRegistry"]) -> None:
        """Mirror this cache's counters into ``metrics`` from now on."""
        self._metrics = metrics

    def _count(self, event: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(f"matching.cache.{self.name}.{event}").inc()

    def get_or_compute(self, key: object, compute: Callable[[], object]) -> object:
        """Cached value for ``key``, computing and inserting on miss."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            self._count("misses")
            value = compute()
            self._data[key] = value
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
                self._count("evictions")
            return value
        self._data.move_to_end(key)
        self.hits += 1
        self._count("hits")
        return value

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


class TextMatcher:
    """Scores text/text pairs by term overlap."""

    def __init__(self, cache_size: int = DEFAULT_CACHE_SIZE):
        self._bags = LruCache("text_tf", cache_size)
        self._terms = TermIds()

    def _bag(self, doc: TextDocument) -> CompactBag:
        """The document's sublinear-TF bag in compact form (cached)."""
        return self._bags.get_or_compute(  # type: ignore[return-value]
            doc.item_id, lambda: self._terms.compact(sublinear_tf(doc.terms))
        )

    def score(self, query: TextDocument, candidate: TextDocument) -> float:
        """Similarity score for one pair, in [0, 1]."""
        return compact_cosine(self._bag(query), self._bag(candidate))

    def score_many(
        self, query: TextDocument, candidates: Sequence[TextDocument]
    ) -> np.ndarray:
        """Scores of ``query`` against each candidate (one column pass)."""
        columns = TermColumns([self._bag(candidate) for candidate in candidates])
        return columns.cosine(self._bag(query))


class MediaMatcher:
    """Scores media/media pairs over one observable feature set."""

    def __init__(
        self,
        extractor: FeatureExtractor,
        feature_set: str,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ):
        self.extractor = extractor
        self.feature_set = feature_set
        self._cache = LruCache("media_features", cache_size)

    def _features(self, obj: MediaObject) -> np.ndarray:
        return self._cache.get_or_compute(  # type: ignore[return-value]
            obj.item_id, lambda: self.extractor.extract(obj, self.feature_set)
        )

    def score(self, query: MediaObject, candidate: MediaObject) -> float:
        """Similarity score for one pair, in [0, 1]."""
        a = self._features(query)
        b = self._features(candidate)
        return float((1.0 + dot_kernel(a, b)) / 2.0)

    def score_many(
        self, query: MediaObject, candidates: Sequence[MediaObject]
    ) -> np.ndarray:
        """Scores of ``query`` against each candidate (one batched dot)."""
        if not candidates:
            return np.zeros(0)
        query_features = self._features(query)
        matrix = np.stack([self._features(candidate) for candidate in candidates])
        return (1.0 + batch_dot_kernel(matrix, query_features)) / 2.0


class ConceptLifter:
    """Learned linear lift from observable evidence into concept space.

    For media objects: ridge regression from extracted features to latent
    topic vectors, trained on a labelled sample (in a real deployment this
    would be a hand-annotated calibration set; here the generator supplies
    labels).  For text: the vocabulary's topic posterior, which needs no
    training.  Lifts are memoized per item id — an item's lift is
    deterministic — so repeated ranks over the same collection pay the
    posterior / regression cost once.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        extractor: FeatureExtractor,
        feature_set: str = "content_metadata",
        ridge: float = 1.0,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ):
        self.vocabulary = vocabulary
        self.extractor = extractor
        self.feature_set = feature_set
        self.ridge = ridge
        self._weights: Optional[np.ndarray] = None
        self._lifts = LruCache("concept_lifts", cache_size)

    @property
    def is_fitted(self) -> bool:
        """Whether the media lift has been trained."""
        return self._weights is not None

    def fit(self, sample: Sequence[MediaObject]) -> "ConceptLifter":
        """Fit the media lift on a labelled sample of media objects."""
        if not sample:
            raise ValueError("need a non-empty training sample")
        features = self.extractor.extract_many(sample, self.feature_set)
        targets = np.stack([obj.latent for obj in sample])
        dims = features.shape[1]
        gram = features.T @ features + self.ridge * np.eye(dims)
        self._weights = np.linalg.solve(gram, features.T @ targets)
        self._lifts.clear()  # lifts depend on the weights
        return self

    def _uniform(self, dimensions: int) -> np.ndarray:
        return np.full(dimensions, 1.0 / dimensions)

    def _lift_uncached(self, item: InformationItem) -> np.ndarray:
        if isinstance(item, TextDocument):
            return self.vocabulary.topic_posterior(item.terms)
        if isinstance(item, MediaObject):
            if self._weights is None:
                raise RuntimeError("ConceptLifter must be fit before lifting media")
            features = self.extractor.extract(item, self.feature_set)
            raw = features @ self._weights
            raw = np.clip(raw, 0.0, None)
            total = raw.sum()
            if total <= 0:
                return self._uniform(raw.shape[0])
            return raw / total
        if isinstance(item, CompoundObject):
            parts = item.flat_parts()
            dimensions = self.vocabulary.topic_space.n_topics
            if not parts:
                return self._uniform(dimensions)
            total = sum(weight for __, weight in parts)
            if total <= 0:
                # All-zero part weights would otherwise produce 0/0 = NaN.
                return self._uniform(dimensions)
            lifted = np.stack([self.lift(part) * weight for part, weight in parts])
            vector = lifted.sum(axis=0) / total
            vector_total = vector.sum()
            if vector_total <= 0 or not np.isfinite(vector_total):
                return self._uniform(dimensions)
            return vector / vector_total
        raise TypeError(f"cannot lift item of type {type(item).__name__}")

    def lift(self, item: InformationItem) -> np.ndarray:
        """Map ``item`` to a (normalised, non-negative) concept vector."""
        return self.lift_with_norm(item)[0]

    def lift_with_norm(self, item: InformationItem) -> Tuple[np.ndarray, float]:
        """The concept vector and its Euclidean norm (both cached)."""
        return self._lifts.get_or_compute(  # type: ignore[return-value]
            item.item_id,
            lambda: (lambda v: (v, float(np.linalg.norm(v))))(
                self._lift_uncached(item)
            ),
        )

    def lift_many(
        self, items: Sequence[InformationItem]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked concept vectors and norms for many items (cached)."""
        if not items:
            n_topics = self.vocabulary.topic_space.n_topics
            return np.zeros((0, n_topics)), np.zeros(0)
        pairs = [self.lift_with_norm(item) for item in items]
        matrix = np.stack([vector for vector, __ in pairs])
        norms = np.array([norm for __, norm in pairs])
        return matrix, norms


class CrossTypeMatcher:
    """Scores any pair of items by concept-space cosine."""

    def __init__(self, lifter: ConceptLifter):
        self.lifter = lifter

    def score(self, query: InformationItem, candidate: InformationItem) -> float:
        """Similarity score for one pair, in [0, 1]."""
        return nonnegative_cosine(self.lifter.lift(query), self.lifter.lift(candidate))

    def score_many(
        self, query: InformationItem, candidates: Sequence[InformationItem]
    ) -> np.ndarray:
        """Scores of ``query`` against each candidate (query lifted once)."""
        if not candidates:
            return np.zeros(0)
        query_lift, query_norm = self.lifter.lift_with_norm(query)
        matrix, norms = self.lifter.lift_many(candidates)
        return batch_nonnegative_cosine(matrix, norms, query_lift, query_norm)


class CompoundMatcher:
    """Aligns compound objects part-by-part.

    Score = weighted mean over query parts of the best match among
    candidate parts, where part/part scores come from a base engine.  This
    is the "matching strategies for compound objects ... each with its own
    semantics and rules for matching" design.
    """

    def __init__(self, base_engine: "MatchingEngine"):
        self.base = base_engine

    def score(self, query: InformationItem, candidate: InformationItem) -> float:
        """Similarity score for one pair, in [0, 1]."""
        query_parts = self._parts(query)
        candidate_parts = self._parts(candidate)
        if not query_parts or not candidate_parts:
            return 0.0
        total_weight = sum(weight for __, weight in query_parts)
        aggregate = 0.0
        for query_part, weight in query_parts:
            best = max(
                self.base.score(query_part, candidate_part)
                for candidate_part, __ in candidate_parts
            )
            aggregate += weight * best
        return aggregate / total_weight

    @staticmethod
    def _parts(item: InformationItem) -> List[Tuple[InformationItem, float]]:
        if isinstance(item, CompoundObject):
            return item.flat_parts()
        return [(item, 1.0)]


# Candidate kind tags used by CandidateBlock partitions.
_KIND_TEXT = 0
_KIND_MEDIA = 1
_KIND_COMPOUND = 2
_KIND_OTHER = 3


class CandidateBlock:
    """Prepared batch-scoring state over an ordered candidate pool.

    A block partitions candidates by type, stacks their cached derived
    vectors into matrices, and scores any query against a *prefix* of the
    pool in one pass.  Sources keep blocks per domain (candidates sorted
    by visibility time, so "the items visible at ``now``" is always a
    prefix) and extend them incrementally as items are ingested.

    Text queries are scored against the whole text partition in one
    column pass (:class:`~repro.uncertainty.similarity.TermColumns`).
    Compound candidates' leaf parts live in one nested parts block with
    per-compound offsets.

    Scores are bitwise-identical to the pairwise path; candidate order
    only affects the order of the returned array, never a value.
    """

    def __init__(self, engine: "MatchingEngine", items: Sequence[InformationItem]):
        self.engine = engine
        self.items: List[InformationItem] = []
        self._kinds: List[int] = []
        # Ascending positions per partition, aligned with per-kind state.
        self._text_positions: List[int] = []
        self._text_bags: List[CompactBag] = []
        self._media_positions: List[int] = []
        self._compound_positions: List[int] = []
        self._noncompound_positions: List[int] = []
        self._noncompound_kinds: List[int] = []
        # Lazily stacked matrices (rebuilt from per-item caches on demand).
        self._media_matrix: Optional[np.ndarray] = None
        self._lift_matrix: Optional[np.ndarray] = None
        self._lift_norms: Optional[np.ndarray] = None
        # Lazily built text layout (dropped on extend).
        self._text_columns: Optional[TermColumns] = None
        # Lazily built leaf parts of the compound partition: compound j's
        # parts sit at parts-block positions [offsets[j], offsets[j + 1]).
        self._parts_block: Optional[CandidateBlock] = None
        self._parts_offsets: List[int] = [0]
        self.extend(items)

    def __len__(self) -> int:
        return len(self.items)

    def extend(self, new_items: Sequence[InformationItem]) -> None:
        """Append candidates, invalidating only the stacked views.

        Per-item derived state (TF bags, features, lifts) stays cached in
        the engine's LRU caches, so re-stacking after an extend re-derives
        nothing — it only rebuilds the dense views and the text layout.
        A built parts block is extended in place.
        """
        if not new_items:
            return
        text = self.engine.text
        new_compounds: List[CompoundObject] = []
        for item in new_items:
            position = len(self.items)
            self.items.append(item)
            if isinstance(item, CompoundObject):
                kind = _KIND_COMPOUND
                self._compound_positions.append(position)
                new_compounds.append(item)
            elif isinstance(item, TextDocument):
                kind = _KIND_TEXT
                self._text_positions.append(position)
                self._text_bags.append(text._bag(item))
            elif isinstance(item, MediaObject):
                kind = _KIND_MEDIA
                self._media_positions.append(position)
            else:
                kind = _KIND_OTHER
            self._kinds.append(kind)
            if kind != _KIND_COMPOUND:
                self._noncompound_positions.append(position)
                self._noncompound_kinds.append(kind)
        self._media_matrix = None
        self._lift_matrix = None
        self._lift_norms = None
        self._text_columns = None
        if self._parts_block is not None and new_compounds:
            self._append_parts(self._parts_block, new_compounds)

    # -- lazily stacked matrices ----------------------------------------
    def _media_rows(self) -> np.ndarray:
        if self._media_matrix is None:
            media = self.engine.media
            if self._media_positions:
                rows = [
                    media._features(self.items[p])  # type: ignore[arg-type]
                    for p in self._media_positions
                ]
                self._media_matrix = np.stack(rows)
            else:
                self._media_matrix = np.zeros((0, 0))
        return self._media_matrix

    def _lift_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._lift_matrix is None or self._lift_norms is None:
            lifter = self.engine.cross.lifter
            self._lift_matrix, self._lift_norms = lifter.lift_many(
                [self.items[p] for p in self._noncompound_positions]
            )
        return self._lift_matrix, self._lift_norms

    def _text_scores_for(self, query: TextDocument) -> np.ndarray:
        """Text-partition scores of ``query``, one column pass."""
        if self._text_columns is None:
            self._text_columns = TermColumns(self._text_bags)
        return self._text_columns.cosine(self.engine.text._bag(query))

    def _compound_parts(self) -> "CandidateBlock":
        if self._parts_block is None:
            self._parts_block = CandidateBlock(self.engine, [])
            self._append_parts(
                self._parts_block,
                [self.items[p] for p in self._compound_positions],
            )
        return self._parts_block

    def _append_parts(
        self, parts_block: "CandidateBlock", compounds: Sequence[InformationItem]
    ) -> None:
        """Append ``compounds``' flattened leaf parts and their offsets."""
        base = len(parts_block)
        leaves: List[InformationItem] = []
        for compound in compounds:
            leaves.extend(part for part, __ in CompoundMatcher._parts(compound))
            self._parts_offsets.append(base + len(leaves))
        parts_block.extend(leaves)

    # -- scoring ---------------------------------------------------------
    def score(
        self, query: InformationItem, limit: Optional[int] = None
    ) -> np.ndarray:
        """Scores of ``query`` against the first ``limit`` candidates.

        ``scores[i]`` is bitwise equal to
        ``engine.score(query, self.items[i])``.
        """
        n = len(self.items) if limit is None else min(limit, len(self.items))
        return self.score_range(query, 0, n)

    def score_range(
        self, query: InformationItem, start: int, stop: int
    ) -> np.ndarray:
        """Scores against candidates at positions ``[start, stop)``.

        ``scores[i]`` is bitwise equal to
        ``engine.score(query, self.items[start + i])``.  Every kernel
        computes each candidate's score with one fixed reduction that does
        not depend on the batch, so slicing the pool never changes a
        float.
        """
        start = max(0, start)
        stop = min(stop, len(self.items))
        if stop <= start:
            return np.zeros(0)
        if isinstance(query, CompoundObject):
            return self._score_compound_query(query, start, stop)
        scores = np.zeros(stop - start)
        self._score_native(query, start, stop, scores)
        self._score_cross(query, start, stop, scores)
        self._score_compounds(query, start, stop, scores)
        return scores

    def _score_compound_query(
        self, query: CompoundObject, start: int, stop: int
    ) -> np.ndarray:
        """:meth:`CompoundMatcher.score` of a compound query, per candidate.

        Each query part's leaf scores against the range come from the
        non-compound path.  Against a compound candidate that score is
        already the best part's score; against any other candidate it is
        the one part's score.  The weighted mean then runs elementwise in
        the pairwise path's order.  Zero total part weight raises, as
        the pairwise division does.
        """
        query_parts = CompoundMatcher._parts(query)
        if not query_parts:
            return np.zeros(stop - start)
        total_weight = sum(weight for __, weight in query_parts)
        if total_weight == 0:
            raise ZeroDivisionError("compound query parts have zero total weight")
        aggregate = np.zeros(stop - start)
        for part, weight in query_parts:
            aggregate += weight * self.score_range(part, start, stop)
        return aggregate / total_weight

    def _score_compounds(
        self, query: InformationItem, start: int, stop: int, scores: np.ndarray
    ) -> None:
        """Best-part scores of a leaf query against compound candidates.

        One pass over the parts block covers every compound in the range;
        ``np.maximum.reduceat`` then takes each compound's best part (a
        max is exact in any order).  Part-less compounds score 0.0, as in
        :meth:`CompoundMatcher.score`.
        """
        lo = bisect_left(self._compound_positions, start)
        hi = bisect_left(self._compound_positions, stop)
        if hi <= lo:
            return
        parts_block = self._compound_parts()
        offsets = np.asarray(self._parts_offsets[lo:hi + 1])
        first, last = int(offsets[0]), int(offsets[-1])
        if last == first:
            return
        has_parts = offsets[1:] > offsets[:-1]
        leaf_scores = parts_block.score_range(query, first, last)
        best = np.maximum.reduceat(leaf_scores, offsets[:-1][has_parts] - first)
        positions = np.asarray(self._compound_positions[lo:hi]) - start
        # CompoundMatcher.score with the single query part (query, 1.0)
        scores[positions[has_parts]] = (0.0 + 1.0 * best) / 1.0

    def _score_native(
        self, query: InformationItem, start: int, stop: int, scores: np.ndarray
    ) -> None:
        """Same-type scores (text/text term overlap, media/media features)."""
        if isinstance(query, TextDocument):
            lo = bisect_left(self._text_positions, start)
            hi = bisect_left(self._text_positions, stop)
            if hi > lo:
                positions = np.asarray(self._text_positions[lo:hi]) - start
                scores[positions] = self._text_scores_for(query)[lo:hi]
        elif isinstance(query, MediaObject):
            lo = bisect_left(self._media_positions, start)
            hi = bisect_left(self._media_positions, stop)
            if hi > lo:
                media = self.engine.media
                query_features = media._features(query)
                positions = [p - start for p in self._media_positions[lo:hi]]
                scores[positions] = (
                    1.0 + batch_dot_kernel(self._media_rows()[lo:hi], query_features)
                ) / 2.0

    def _score_cross(
        self, query: InformationItem, start: int, stop: int, scores: np.ndarray
    ) -> None:
        """Concept-space scores for mixed-type (non-compound) pairs."""
        if isinstance(query, TextDocument):
            native = _KIND_TEXT
        elif isinstance(query, MediaObject):
            native = _KIND_MEDIA
        else:
            native = -1  # plain base items always lift (and may TypeError)
        lo = bisect_left(self._noncompound_positions, start)
        hi = bisect_left(self._noncompound_positions, stop)
        rows = [
            j for j in range(lo, hi) if self._noncompound_kinds[j] != native
        ]
        if not rows:
            return
        lifter = self.engine.cross.lifter
        query_lift, query_norm = lifter.lift_with_norm(query)
        matrix, norms = self._lift_rows()
        positions = [self._noncompound_positions[j] - start for j in rows]
        scores[positions] = batch_nonnegative_cosine(
            matrix[rows], norms[rows], query_lift, query_norm
        )


class MatchingEngine:
    """Type-dispatching entry point for scoring item pairs.

    Uses the most specific matcher available: text/text → term overlap,
    media/media → the configured feature set, anything involving a
    compound → part alignment, and mixed plain types → concept-space lift.

    ``rank``/``score_many`` run the batched kernels; ``rank_pairwise``
    retains the one-pair-at-a-time reference path the parity property
    tests compare against.
    """

    def __init__(
        self,
        text_matcher: TextMatcher,
        media_matcher: MediaMatcher,
        cross_matcher: CrossTypeMatcher,
        metrics: Optional["MetricsRegistry"] = None,
    ):
        self.text = text_matcher
        self.media = media_matcher
        self.cross = cross_matcher
        self.compound = CompoundMatcher(self)
        self._metrics: Optional["MetricsRegistry"] = None
        self.attach_metrics(metrics)

    def attach_metrics(self, metrics: Optional["MetricsRegistry"]) -> None:
        """Record rank batch sizes and cache traffic into ``metrics``."""
        self._metrics = metrics
        for cache in self.caches().values():
            cache.bind_metrics(metrics)

    def caches(self) -> Dict[str, LruCache]:
        """The engine's derived-state caches, by name."""
        return {
            "text_tf": self.text._bags,
            "media_features": self.media._cache,
            "concept_lifts": self.cross.lifter._lifts,
        }

    def score(self, query: InformationItem, candidate: InformationItem) -> float:
        """Return a similarity score in [0, 1] for any item pair."""
        if isinstance(query, CompoundObject) or isinstance(candidate, CompoundObject):
            return self.compound.score(query, candidate)
        if isinstance(query, TextDocument) and isinstance(candidate, TextDocument):
            return self.text.score(query, candidate)
        if isinstance(query, MediaObject) and isinstance(candidate, MediaObject):
            return self.media.score(query, candidate)
        return self.cross.score(query, candidate)

    def prepare(self, candidates: Sequence[InformationItem]) -> CandidateBlock:
        """Build reusable batch-scoring state over ``candidates``."""
        return CandidateBlock(self, candidates)

    def score_many(
        self, query: InformationItem, candidates: Sequence[InformationItem]
    ) -> np.ndarray:
        """Scores of ``query`` against each candidate, batched.

        ``score_many(q, cs)[i] == score(q, cs[i])`` exactly.
        """
        return self.prepare(candidates).score(query)

    def rank(
        self, query: InformationItem, candidates: Sequence[InformationItem]
    ) -> List[Tuple[InformationItem, float]]:
        """Candidates with scores, best first (ties broken by item id)."""
        return self.rank_block(query, self.prepare(candidates))

    def rank_block(
        self,
        query: InformationItem,
        block: CandidateBlock,
        limit: Optional[int] = None,
    ) -> List[Tuple[InformationItem, float]]:
        """Rank the first ``limit`` candidates of a prepared block."""
        n = len(block) if limit is None else min(limit, len(block))
        self._observe_rank(n)
        scores = block.score(query, limit=n)
        scored = [
            (item, float(score)) for item, score in zip(block.items[:n], scores)
        ]
        return sorted(scored, key=lambda pair: (-pair[1], pair[0].item_id))

    def rank_block_topk(
        self,
        query: InformationItem,
        block: CandidateBlock,
        k: int,
        limit: Optional[int] = None,
        score_floor: float = 0.0,
    ) -> List[Tuple[InformationItem, float]]:
        """The best ``k`` of :meth:`rank_block`, minus sub-floor entries.

        One whole-prefix score and one sort: the result is
        ``rank_block(query, block, limit)[:k]`` with entries under
        ``score_floor`` removed (the plan's ``Threshold`` would drop them
        anyway).  Every call counts its candidates under
        ``matching.prune.*``, where scored always equals total.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        n = len(block) if limit is None else min(limit, len(block))
        top = self.rank_block(query, block, limit=n)[:k]
        if score_floor > 0.0:
            top = [(item, s) for item, s in top if s >= score_floor]
        if self._metrics is not None:
            self._metrics.counter("matching.prune.calls").inc()
            self._metrics.counter("matching.prune.candidates_total").inc(float(n))
            self._metrics.counter("matching.prune.candidates_scored").inc(float(n))
        return top

    def rank_pairwise(
        self, query: InformationItem, candidates: Sequence[InformationItem]
    ) -> List[Tuple[InformationItem, float]]:
        """Reference ranking via one ``score`` call per candidate.

        Kept as the ground truth the batch path is property-tested
        against (and as a micro-benchmark baseline).
        """
        scored = [(item, self.score(query, item)) for item in candidates]
        return sorted(scored, key=lambda pair: (-pair[1], pair[0].item_id))

    def _observe_rank(self, batch_size: int) -> None:
        if self._metrics is not None:
            self._metrics.counter("matching.rank_calls").inc()
            self._metrics.histogram("matching.rank_batch_size").observe(
                float(batch_size)
            )


def build_matching_engine(
    vocabulary: Vocabulary,
    extractor: FeatureExtractor,
    feature_set: str = "content_metadata",
    lifter_sample: Optional[Sequence[MediaObject]] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> MatchingEngine:
    """Convenience constructor wiring the standard matchers together."""
    lifter = ConceptLifter(vocabulary, extractor, feature_set=feature_set)
    if lifter_sample:
        lifter.fit(lifter_sample)
    return MatchingEngine(
        text_matcher=TextMatcher(),
        media_matcher=MediaMatcher(extractor, feature_set),
        cross_matcher=CrossTypeMatcher(lifter),
        metrics=metrics,
    )
