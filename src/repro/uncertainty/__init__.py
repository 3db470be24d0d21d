"""Uncertainty: matching, calibration, risk, uncertain results (paper §2).

Public API:

- Similarity primitives: :func:`cosine_similarity`,
  :func:`jaccard_similarity`, :func:`weighted_jaccard`, :func:`bag_cosine`,
  :class:`EnsembleSimilarity`; the compact text layout
  :class:`CompactBag`, :class:`TermIds`, :class:`TermColumns`,
  :func:`compact_cosine`.
- Matching: :class:`MatchingEngine`, :class:`TextMatcher`,
  :class:`MediaMatcher`, :class:`CrossTypeMatcher`,
  :class:`CompoundMatcher`, :class:`ConceptLifter`,
  :func:`build_matching_engine`; a source's top-k is one whole-block
  score and one sort (:meth:`MatchingEngine.rank_block_topk`).
- Calibration: :class:`BinnedCalibrator`,
  :func:`expected_calibration_error`, :func:`ranking_auc`,
  :func:`pool_adjacent_violators`.
- Results: :class:`UncertainMatch`, :class:`UncertainResultSet`,
  :func:`merge_all`.
- Risk: :class:`RiskProfile`, :func:`risk_averse`, :func:`risk_neutral`,
  :func:`risk_seeking`.
- Estimates: :class:`UncertainEstimate`.
"""

from repro.uncertainty.calibration import (
    BinnedCalibrator,
    CalibrationReport,
    expected_calibration_error,
    pool_adjacent_violators,
    ranking_auc,
)
from repro.uncertainty.estimates import UncertainEstimate
from repro.uncertainty.matching import (
    CandidateBlock,
    CompoundMatcher,
    ConceptLifter,
    CrossTypeMatcher,
    LruCache,
    MatchingEngine,
    MediaMatcher,
    TextMatcher,
    build_matching_engine,
)
from repro.uncertainty.results import UncertainMatch, UncertainResultSet, merge_all
from repro.uncertainty.risk import (
    RiskProfile,
    risk_averse,
    risk_neutral,
    risk_seeking,
)
from repro.uncertainty.salience import (
    SalientPart,
    concept_peakedness,
    salient_parts,
)
from repro.uncertainty.similarity import (
    CompactBag,
    EnsembleSimilarity,
    TermColumns,
    TermIds,
    bag_cosine,
    bag_norm,
    batch_dot_kernel,
    batch_nonnegative_cosine,
    compact_cosine,
    cosine_similarity,
    dot_kernel,
    jaccard_similarity,
    nonnegative_cosine,
    sublinear_tf,
    weighted_jaccard,
)

__all__ = [
    "BinnedCalibrator",
    "CalibrationReport",
    "CandidateBlock",
    "CompactBag",
    "CompoundMatcher",
    "LruCache",
    "ConceptLifter",
    "CrossTypeMatcher",
    "EnsembleSimilarity",
    "MatchingEngine",
    "MediaMatcher",
    "RiskProfile",
    "SalientPart",
    "TermColumns",
    "TermIds",
    "TextMatcher",
    "UncertainEstimate",
    "UncertainMatch",
    "UncertainResultSet",
    "bag_cosine",
    "bag_norm",
    "batch_dot_kernel",
    "batch_nonnegative_cosine",
    "build_matching_engine",
    "compact_cosine",
    "dot_kernel",
    "concept_peakedness",
    "cosine_similarity",
    "expected_calibration_error",
    "jaccard_similarity",
    "merge_all",
    "nonnegative_cosine",
    "pool_adjacent_violators",
    "ranking_auc",
    "risk_averse",
    "salient_parts",
    "risk_neutral",
    "risk_seeking",
    "sublinear_tf",
    "weighted_jaccard",
]
