"""Information objects and synthetic content generation (substrate).

Public API:

- :class:`TopicSpace` — shared latent topic space (the relevance oracle).
- :class:`InformationItem` and subclasses — typed objects.
- :class:`FeatureExtractor`, :class:`FeatureSetSpec` — observable features.
- :class:`Vocabulary` — topic-conditioned term generation.
- :class:`CorpusGenerator`, :class:`DomainSpec`, :func:`iris_domains` —
  multi-domain synthetic corpora.
"""

from repro.data.corpus import CorpusGenerator, DomainSpec, iris_domains
from repro.data.features import (
    DEFAULT_FEATURE_SETS,
    FeatureExtractor,
    FeatureSetSpec,
)
from repro.data.items import (
    Annotation,
    CompoundObject,
    InformationItem,
    MediaObject,
    TextDocument,
    combined_latent,
    make_item_id,
    reset_item_ids,
)
from repro.data.topics import TopicSpace
from repro.data.vocabulary import Vocabulary

__all__ = [
    "Annotation",
    "CompoundObject",
    "CorpusGenerator",
    "DEFAULT_FEATURE_SETS",
    "DomainSpec",
    "FeatureExtractor",
    "FeatureSetSpec",
    "InformationItem",
    "MediaObject",
    "TextDocument",
    "TopicSpace",
    "Vocabulary",
    "combined_latent",
    "iris_domains",
    "make_item_id",
    "reset_item_ids",
]
