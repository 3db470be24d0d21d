"""Typed information objects traded in the agora.

The paper's scenario mixes text documents, images, and compound objects
(web pages, catalogs) whose parts have their own matching semantics.  We
model the type hierarchy explicitly:

- :class:`InformationItem` — common base: identity, domain, latent topic
  vector, creation time.
- :class:`TextDocument` — adds a term-frequency vector.
- :class:`MediaObject` — adds a true perceptual feature vector (images,
  audio) from which noisy observable feature sets are derived.
- :class:`CompoundObject` — a weighted composition of heterogeneous parts
  (e.g. a magazine page containing images and text).
- :class:`Annotation` — a user note attached to an item.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

_ITEM_COUNTER = itertools.count()


def _next_item_id(prefix: str) -> str:
    return f"{prefix}-{next(_ITEM_COUNTER):08d}"


def reset_item_ids() -> None:
    """Reset the global item-id counter (used by tests for determinism)."""
    global _ITEM_COUNTER
    _ITEM_COUNTER = itertools.count()


@dataclass
class InformationItem:
    """Base class for all objects stored at information sources.

    Attributes
    ----------
    item_id:
        Globally unique identifier.
    domain:
        The collection domain (e.g. ``"museum"``, ``"auction"``).
    latent:
        Ground-truth topic vector (hidden from matching algorithms;
        used only by generators and by experiment oracles).
    created_at:
        Virtual creation time, used to score freshness.
    metadata:
        Open key/value bag (title, region, etc.).
    """

    item_id: str
    domain: str
    latent: np.ndarray
    created_at: float = 0.0
    metadata: Dict[str, str] = field(default_factory=dict)

    def age(self, now: float) -> float:
        """Item age at virtual time ``now`` (never negative)."""
        return max(0.0, now - self.created_at)

    def __hash__(self) -> int:
        return hash(self.item_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, InformationItem) and other.item_id == self.item_id


@dataclass(eq=False)
class TextDocument(InformationItem):
    """A textual object: thesis, article, catalog entry text."""

    terms: Dict[str, int] = field(default_factory=dict)


@dataclass(eq=False)
class MediaObject(InformationItem):
    """An image-like object with a true perceptual feature vector.

    Matching algorithms never see ``true_features`` directly; they see
    noisy projections produced by a
    :class:`repro.data.features.FeatureExtractor`.
    """

    true_features: np.ndarray = field(default_factory=lambda: np.zeros(1))
    media_kind: str = "image"


@dataclass(eq=False)
class CompoundObject(InformationItem):
    """A heterogeneous composition, e.g. a web page or auction catalog.

    ``parts`` is a sequence of ``(item, weight)`` pairs; weights express the
    part's importance for matching and need not sum to one.
    """

    parts: List[Tuple[InformationItem, float]] = field(default_factory=list)
    layout: str = "article"

    def __post_init__(self) -> None:
        for __, weight in self.parts:
            if weight < 0:
                raise ValueError("part weights must be non-negative")

    def flat_parts(self) -> List[Tuple[InformationItem, float]]:
        """Recursively flatten nested compounds into (leaf, weight) pairs."""
        flattened: List[Tuple[InformationItem, float]] = []
        for part, weight in self.parts:
            if isinstance(part, CompoundObject):
                for leaf, inner_weight in part.flat_parts():
                    flattened.append((leaf, weight * inner_weight))
            else:
                flattened.append((part, weight))
        return flattened


@dataclass(eq=False)
class Annotation(InformationItem):
    """A user annotation attached to another item."""

    author_id: str = ""
    target_item_id: str = ""
    text: str = ""


def make_item_id(prefix: str = "item") -> str:
    """Public helper to mint a fresh item id."""
    return _next_item_id(prefix)


def combined_latent(
    parts: Sequence[Tuple[InformationItem, float]],
) -> np.ndarray:
    """Weighted average of part latents (for building compound objects)."""
    if not parts:
        raise ValueError("compound object needs at least one part")
    total = sum(weight for __, weight in parts)
    if total <= 0:
        raise ValueError("total part weight must be positive")
    vectors = np.stack([part.latent * weight for part, weight in parts])
    return vectors.sum(axis=0) / total
