"""Exactness-preserving score upper bounds for top-k / threshold pruning.

The batched matchers of :mod:`repro.uncertainty.matching` score every
visible candidate, even though a ``TopK`` plan only keeps ``k`` of them
and a ``Threshold`` plan discards everything under ``tau``.  This module
supplies the *cheap, provably safe* upper bounds that let the pruning
rank path skip whole candidate chunks that cannot reach the current
cutoff, while scoring survivors through the exact einsum kernels.

The bound hierarchy (see DESIGN.md §2f):

1. **Norm bounds** (Cauchy–Schwarz): ``dot(a, b) <= ||a||·||b||`` caps
   the media matcher's affine-dot score using cached candidate feature
   norms.
2. **Term index**: for text/text cosine, ``dot(q, c)`` is at most
   ``sum_t q_t · max_c c_t`` over the query's terms, where ``max_c c_t``
   comes from a per-chunk inverted index of maximum TF weights.  A chunk
   sharing no terms with the query is bounded at exactly zero.
3. **Concept-space (Hölder) bounds**: lifted vectors are non-negative,
   so ``dot(ql, cl) <= min(max(ql)·sum(cl), sum(ql)·max(cl))``; cached
   per-candidate ``sum/norm`` and ``max/norm`` ratios turn this into a
   chunk ceiling for cross-type cosine.

Exactness argument: a chunk is skipped only when its padded ceiling is
*strictly* below the cutoff (the running k-th best score, or the pushed-
down threshold floor).  Every candidate in a skipped chunk therefore
scores strictly below the cutoff and can appear in neither the top-k
(ties at the k-th score are still scored and tie-broken by item id) nor
the thresholded result.  Survivors are scored by the same kernels as the
exhaustive path, so the produced floats are bitwise identical.

All ceilings are padded by ``pad()`` (a relative + absolute slack far
above accumulated float64 rounding error) before being compared, so the
real-arithmetic inequalities above also hold for the *computed* floats.
Padding can only make bounds looser — it costs a little pruning power,
never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.items import (
    CompoundObject,
    InformationItem,
    MediaObject,
    TextDocument,
)

if TYPE_CHECKING:
    from repro.uncertainty.matching import MatchingEngine

#: candidates per pruning chunk — small enough that one surviving item
#: costs little collateral scoring, large enough to amortise the bound
#: check (one dict walk + a few multiplies per chunk)
CHUNK_SIZE = 16

#: relative / absolute slack applied to every ceiling before comparison;
#: float64 rounding across the few hundred flops in a bound is ~1e-13,
#: so this margin is ~4 orders of magnitude of headroom
PAD_RELATIVE = 1e-9
PAD_ABSOLUTE = 1e-12

#: ceiling meaning "cannot bound this chunk" (compound/unliftable items)
UNBOUNDED = float("inf")


def pad(bound: float) -> float:
    """Widen a real-arithmetic upper bound to absorb float rounding."""
    if bound == UNBOUNDED:
        return bound
    return bound * (1.0 + PAD_RELATIVE) + PAD_ABSOLUTE


@dataclass
class QueryBoundState:
    """Query-side quantities the chunk ceilings need, computed once.

    ``None``-valued lift fields mean the concept-space bound is
    unavailable (unfitted lifter) and cross-scored chunks are unbounded.
    """

    is_text: bool
    #: text query: the sublinear-TF bag as (term id, weight) pairs in
    #: sorted term order, and its norm
    bag: Optional[List[Tuple[int, float]]] = None
    bag_norm: float = 0.0
    #: media query: extracted feature-vector norm
    feature_norm: float = 0.0
    #: lifted concept vector summary (either query kind)
    lift_norm: Optional[float] = None
    lift_max: float = 0.0
    lift_sum: float = 0.0


class BoundStats:
    """Upper-bound state over a set of candidates (one chunk, or a whole
    domain bucket when used as the block aggregate).

    Updated incrementally as candidates are appended; every field is an
    order-independent max/min, so the incremental aggregate equals the
    rebuilt-from-scratch one exactly (the invalidation fuzz suite asserts
    this).
    """

    __slots__ = (
        "count",
        "term_max",
        "min_text_norm",
        "has_text",
        "max_media_norm",
        "has_media",
        "text_lift_sum_ratio",
        "text_lift_max_ratio",
        "media_lift_sum_ratio",
        "media_lift_max_ratio",
        "unbounded",
    )

    def __init__(self) -> None:
        self.count = 0
        #: inverted term index: term id -> max TF weight over text candidates
        self.term_max: Dict[int, float] = {}
        self.min_text_norm = UNBOUNDED
        self.has_text = False
        self.max_media_norm = 0.0
        self.has_media = False
        # max over candidates of sum(lift)/||lift|| and max(lift)/||lift||,
        # kept separately per candidate kind so a text query only pays the
        # media candidates' cross bound (and vice versa)
        self.text_lift_sum_ratio = 0.0
        self.text_lift_max_ratio = 0.0
        self.media_lift_sum_ratio = 0.0
        self.media_lift_max_ratio = 0.0
        #: a compound / unliftable candidate makes the chunk unprunable
        self.unbounded = False

    # ------------------------------------------------------------------
    def update(self, item: InformationItem, engine: "MatchingEngine") -> None:
        """Fold one candidate's cached derived state into the bounds."""
        self.count += 1
        if isinstance(item, CompoundObject):
            self.unbounded = True
            return
        if isinstance(item, TextDocument):
            self.has_text = True
            bag = engine.text._bag(item)
            if bag.norm > 0.0:
                if bag.norm < self.min_text_norm:
                    self.min_text_norm = bag.norm
                for term, weight in zip(bag.ids.tolist(), bag.weights.tolist()):
                    if weight > self.term_max.get(term, 0.0):
                        self.term_max[term] = weight
            self._update_lift(item, engine, media=False)
        elif isinstance(item, MediaObject):
            self.has_media = True
            features = engine.media._features(item)
            norm = float(np.linalg.norm(features))
            if norm > self.max_media_norm:
                self.max_media_norm = norm
            self._update_lift(item, engine, media=True)
        else:
            # Plain base items would TypeError in the lifter; never prune
            # around them so the exhaustive and pruned paths agree.
            self.unbounded = True

    def _update_lift(
        self, item: InformationItem, engine: "MatchingEngine", media: bool
    ) -> None:
        lifter = engine.cross.lifter
        if media and not lifter.is_fitted:
            # Cross bounds unavailable; only media/media scoring is
            # possible anyway, and a mixed pool would raise identically
            # in the exhaustive path.
            self.unbounded = True
            return
        vector, norm = lifter.lift_with_norm(item)
        if norm <= 0.0:
            return  # zero lift scores 0 against everything
        sum_ratio = float(vector.sum()) / norm
        max_ratio = float(vector.max()) / norm
        if media:
            if sum_ratio > self.media_lift_sum_ratio:
                self.media_lift_sum_ratio = sum_ratio
            if max_ratio > self.media_lift_max_ratio:
                self.media_lift_max_ratio = max_ratio
        else:
            if sum_ratio > self.text_lift_sum_ratio:
                self.text_lift_sum_ratio = sum_ratio
            if max_ratio > self.text_lift_max_ratio:
                self.text_lift_max_ratio = max_ratio

    # ------------------------------------------------------------------
    def ceiling(self, state: Optional[QueryBoundState]) -> float:
        """Padded upper bound on any candidate's score for this query."""
        if state is None or self.unbounded:
            return UNBOUNDED
        if self.count == 0:
            return 0.0
        bound = 0.0
        if state.is_text:
            if self.has_text:
                bound = max(bound, self._text_bound(state))
            if self.has_media:
                bound = max(
                    bound,
                    self._cross_bound(
                        state, self.media_lift_sum_ratio, self.media_lift_max_ratio
                    ),
                )
        else:
            if self.has_media:
                # media score = (1 + dot)/2 with dot <= ||q||·||c||
                bound = max(
                    bound,
                    (1.0 + state.feature_norm * self.max_media_norm) / 2.0,
                )
            if self.has_text:
                bound = max(
                    bound,
                    self._cross_bound(
                        state, self.text_lift_sum_ratio, self.text_lift_max_ratio
                    ),
                )
        return pad(bound)

    def _text_bound(self, state: QueryBoundState) -> float:
        """Term-index bound on text/text cosine (clipped metric <= 1)."""
        if state.bag_norm <= 0.0 or not state.bag or self.min_text_norm == UNBOUNDED:
            return 0.0
        dot_cap = 0.0
        for term, weight in state.bag:
            chunk_weight = self.term_max.get(term)
            if chunk_weight is not None:
                dot_cap += weight * chunk_weight
        if dot_cap <= 0.0:
            return 0.0
        return min(1.0, dot_cap / (state.bag_norm * self.min_text_norm))

    def _cross_bound(
        self, state: QueryBoundState, sum_ratio: float, max_ratio: float
    ) -> float:
        """Hölder bound on non-negative concept-space cosine (<= 1)."""
        if state.lift_norm is None:
            return UNBOUNDED  # lifter unavailable: cannot bound
        if state.lift_norm <= 0.0:
            return 0.0  # zero query lift scores 0 everywhere
        dot_cap = min(
            state.lift_max * sum_ratio, state.lift_sum * max_ratio
        )
        return min(1.0, dot_cap / state.lift_norm)

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """Comparable snapshot (used by the invalidation fuzz suite)."""
        return {
            "count": self.count,
            "term_max": dict(self.term_max),
            "min_text_norm": self.min_text_norm,
            "has_text": self.has_text,
            "max_media_norm": self.max_media_norm,
            "has_media": self.has_media,
            "text_lift_sum_ratio": self.text_lift_sum_ratio,
            "text_lift_max_ratio": self.text_lift_max_ratio,
            "media_lift_sum_ratio": self.media_lift_sum_ratio,
            "media_lift_max_ratio": self.media_lift_max_ratio,
            "unbounded": self.unbounded,
        }


class BlockBounds:
    """Chunked bound state over an ordered candidate pool.

    Mirrors the candidate order of a
    :class:`~repro.uncertainty.matching.CandidateBlock`: chunk ``i``
    covers candidate positions ``[i·CHUNK_SIZE, (i+1)·CHUNK_SIZE)``.
    ``aggregate`` carries the same bounds over the whole pool — the
    per-domain score ceiling sources publish through their
    :class:`~repro.sources.index.CollectionIndex` stat cache.
    """

    def __init__(self, engine: "MatchingEngine", chunk_size: int = CHUNK_SIZE):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.engine = engine
        self.chunk_size = chunk_size
        self.chunks: List[BoundStats] = []
        self.aggregate = BoundStats()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def extend(self, items: Sequence[InformationItem]) -> None:
        """Fold appended candidates into chunk and aggregate bounds."""
        for item in items:
            if self._count % self.chunk_size == 0:
                self.chunks.append(BoundStats())
            self.chunks[-1].update(item, self.engine)
            self.aggregate.update(item, self.engine)
            self._count += 1

    # ------------------------------------------------------------------
    def query_state(self, query: InformationItem) -> Optional[QueryBoundState]:
        """Query-side bound state; ``None`` if the query is unprunable."""
        engine = self.engine
        lifter = engine.cross.lifter
        if isinstance(query, TextDocument):
            bag = engine.text._bag(query)
            vector, lift_norm = lifter.lift_with_norm(query)
            return QueryBoundState(
                is_text=True,
                bag=list(zip(bag.ids.tolist(), bag.weights.tolist())),
                bag_norm=bag.norm,
                lift_norm=lift_norm,
                lift_max=float(vector.max()) if vector.size else 0.0,
                lift_sum=float(vector.sum()),
            )
        if isinstance(query, MediaObject):
            features = engine.media._features(query)
            state = QueryBoundState(
                is_text=False,
                feature_norm=float(np.linalg.norm(features)),
            )
            if lifter.is_fitted:
                vector, lift_norm = lifter.lift_with_norm(query)
                state.lift_norm = lift_norm
                state.lift_max = float(vector.max()) if vector.size else 0.0
                state.lift_sum = float(vector.sum())
            return state
        return None  # compound / base queries fall back to full scoring

    def chunk_ranges(self, limit: int) -> List[Tuple[int, int, BoundStats]]:
        """``(start, stop, stats)`` triples covering positions [0, limit).

        The final chunk's stats may cover candidates beyond ``limit``; a
        superset's ceiling is still a valid (looser) bound for the part
        inside the prefix.
        """
        ranges: List[Tuple[int, int, BoundStats]] = []
        for index, stats in enumerate(self.chunks):
            start = index * self.chunk_size
            if start >= limit:
                break
            stop = min(start + self.chunk_size, limit)
            ranges.append((start, stop, stats))
        return ranges


@dataclass
class PruneStats:
    """What one pruned rank call did (mirrored into ``repro.obs``)."""

    candidates_total: int = 0
    candidates_scored: int = 0
    chunks_total: int = 0
    chunks_skipped: int = 0
    #: the query type admitted bounds at all
    prunable: bool = True
    #: whole-domain ceiling skip (no chunk was even inspected)
    domain_skipped: bool = False

    @property
    def candidates_skipped(self) -> int:
        """How many candidate scorings the bounds avoided."""
        return self.candidates_total - self.candidates_scored

    @property
    def scored_fraction(self) -> float:
        """Fraction of candidates actually scored (1.0 when empty)."""
        if self.candidates_total == 0:
            return 1.0
        return self.candidates_scored / self.candidates_total
