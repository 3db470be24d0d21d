"""Synthetic corpus generator for the Iris scenario.

Substitutes for the paper's real-world federation of museums, auction
houses, magazines and institutional repositories.  Each *domain* has a
topic-mixture prior and a characteristic mix of item types; the generator
draws items whose latent topic vectors cluster around the domain prior,
with per-item specialisation.  Media objects get true perceptual features
derived from their latent vector through a fixed linear "rendering" map, so
perceptual similarity correlates with semantic relevance — the property the
paper's uncertain-matching discussion relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.data.items import (
    CompoundObject,
    InformationItem,
    MediaObject,
    TextDocument,
    combined_latent,
    make_item_id,
)
from repro.data.topics import TopicSpace
from repro.data.vocabulary import Vocabulary
from repro.sim.rng import ScopedStreams


#: the item kinds a domain's ``type_mix`` may draw
ITEM_KINDS = ("text", "media", "compound")

#: ceiling on ``DomainSpec.update_rate`` (items per unit of virtual time).
#: Every arrival is one kernel event, so a run's event count grows with
#: rate x horizon, and a finite but huge rate (1e300) makes
#: ``run(until=now + 1)`` effectively never return.  The stock domains use
#: 0.02-0.3 and the tests at most 0.8; at 100, one unit of virtual time
#: publishes ~100 items per stream (about 11 ms on a 2-core x86-64 VM).
MAX_UPDATE_RATE = 100.0


@dataclass(frozen=True)
class DomainSpec:
    """Static description of a content domain.

    Attributes
    ----------
    name:
        Domain identifier (also used as item id prefix).
    topic_prior:
        Mixture the domain's items concentrate around (keyed by topic name).
    type_mix:
        Probabilities of generating text / media / compound items; keys
        outside :data:`ITEM_KINDS` are rejected.
    concentration:
        Dirichlet concentration of per-item draws around the prior;
        smaller = more specialised items.
    update_rate:
        Mean new items per unit of virtual time (drives feeds), at most
        :data:`MAX_UPDATE_RATE`.
    """

    name: str
    topic_prior: Mapping[str, float]
    type_mix: Mapping[str, float] = field(
        default_factory=lambda: {"text": 0.5, "media": 0.3, "compound": 0.2}
    )
    concentration: float = 0.5
    update_rate: float = 0.1

    def __post_init__(self) -> None:
        unknown = sorted(set(self.type_mix) - set(ITEM_KINDS))
        if unknown:
            raise ValueError(
                f"type_mix keys must be among {ITEM_KINDS}, got {unknown}"
            )
        _check_weights("type_mix", self.type_mix)
        total = sum(self.type_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"type_mix must sum to 1, got {total}")
        if not self.topic_prior:
            raise ValueError(f"domain {self.name!r} has an empty topic_prior")
        _check_weights("topic_prior", self.topic_prior)
        if not sum(self.topic_prior.values()) > 0:
            raise ValueError(f"domain {self.name!r} topic_prior weights sum to 0")
        if not (math.isfinite(self.concentration) and self.concentration > 0):
            raise ValueError(
                f"concentration must be finite and > 0, got {self.concentration}"
            )
        if not 0 <= self.update_rate <= MAX_UPDATE_RATE:
            raise ValueError(
                f"update_rate must be in [0, {MAX_UPDATE_RATE}], got {self.update_rate}"
            )


def _check_weights(field_name: str, weights: Mapping[str, float]) -> None:
    for key, weight in weights.items():
        if not (math.isfinite(weight) and weight >= 0):
            raise ValueError(
                f"{field_name}[{key!r}] must be finite and >= 0, got {weight}"
            )


def iris_domains() -> List[DomainSpec]:
    """The five content domains of the paper's running scenario."""
    return [
        DomainSpec(
            name="museum",
            topic_prior={"folk-jewelry": 0.4, "museum-exhibitions": 0.3, "craft-techniques": 0.3},
            type_mix={"text": 0.3, "media": 0.5, "compound": 0.2},
            update_rate=0.05,
        ),
        DomainSpec(
            name="auction",
            topic_prior={"auction-market": 0.45, "folk-jewelry": 0.35, "fashion-trends": 0.2},
            type_mix={"text": 0.2, "media": 0.3, "compound": 0.5},
            update_rate=0.2,
        ),
        DomainSpec(
            name="magazine",
            topic_prior={"fashion-trends": 0.4, "tourism": 0.3, "regional-history": 0.3},
            type_mix={"text": 0.4, "media": 0.2, "compound": 0.4},
            update_rate=0.3,
        ),
        DomainSpec(
            name="thesis",
            topic_prior={"academic-theses": 0.5, "dance-forms": 0.25, "regional-history": 0.25},
            type_mix={"text": 0.9, "media": 0.05, "compound": 0.05},
            update_rate=0.02,
        ),
        DomainSpec(
            name="cultural-org",
            topic_prior={"traditional-costume": 0.35, "dance-forms": 0.35, "regional-history": 0.3},
            type_mix={"text": 0.5, "media": 0.3, "compound": 0.2},
            update_rate=0.08,
        ),
    ]


class CorpusGenerator:
    """Generates typed information items for a set of domains.

    Parameters
    ----------
    topic_space:
        Shared latent topic space.
    vocabulary:
        Term vocabulary used for text documents.
    streams:
        RNG scope; child streams are keyed per domain.
    feature_dimensions:
        Dimensionality of media objects' true perceptual features.
    """

    def __init__(
        self,
        topic_space: TopicSpace,
        vocabulary: Vocabulary,
        streams: ScopedStreams,
        feature_dimensions: int = 32,
    ):
        self.topic_space = topic_space
        self.vocabulary = vocabulary
        self.feature_dimensions = feature_dimensions
        self._streams = streams
        rng = streams.stream("rendering-map")
        # Fixed linear map from topic space to perceptual feature space.
        self._render_map = rng.normal(size=(feature_dimensions, topic_space.n_topics))
        self._render_map /= np.linalg.norm(self._render_map, axis=0, keepdims=True)
        self._alphas: Dict[Tuple[object, ...], np.ndarray] = {}
        self._type_draws: Dict[Tuple[object, ...], Tuple[List[str], np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Per-spec derivations.  They are pure functions of a spec's contents,
    # so each is computed once per distinct contents (not per spec object:
    # a spec's mappings can be mutated in place) and reused for every item.
    def _prior_vector(self, spec: DomainSpec) -> np.ndarray:
        prior = np.zeros(self.topic_space.n_topics)
        for topic, weight in spec.topic_prior.items():
            if topic not in self.topic_space.names:
                raise KeyError(f"domain {spec.name!r} references unknown topic {topic!r}")
            prior[self.topic_space.names.index(topic)] = weight
        return self.topic_space.normalize(prior)

    def _latent_alpha(self, spec: DomainSpec) -> np.ndarray:
        """The Dirichlet parameter of ``spec``'s item latents (cached)."""
        key = (tuple(spec.topic_prior.items()), spec.concentration)
        alpha = self._alphas.get(key)
        if alpha is None:
            alpha = self.topic_space.dirichlet_alpha(
                spec.concentration, self._prior_vector(spec)
            )
            self._alphas[key] = alpha
        return alpha

    def _type_draw(self, spec: DomainSpec) -> Tuple[List[str], np.ndarray]:
        """``spec``'s item kinds (sorted) and their probabilities (cached)."""
        key = tuple(spec.type_mix.items())
        draw = self._type_draws.get(key)
        if draw is None:
            kinds = sorted(spec.type_mix)
            probs = np.array([spec.type_mix[k] for k in kinds])
            probs = probs / probs.sum()
            draw = self._type_draws[key] = (kinds, probs)
        return draw

    def sample_latent(self, spec: DomainSpec, rng: np.random.Generator) -> np.ndarray:
        """Draw an item latent around the domain prior."""
        return rng.dirichlet(self._latent_alpha(spec))

    def render_features(self, latent: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """True perceptual features for a media object with ``latent``."""
        base = self._render_map @ self.topic_space.normalize(latent)
        variation = rng.normal(scale=0.15, size=self.feature_dimensions)
        features = base + variation
        # np.linalg.norm of a 1-D float vector is sqrt(x.dot(x)).
        norm = np.sqrt(features.dot(features))
        return features / norm if norm > 0 else features

    # ------------------------------------------------------------------
    def generate_item(
        self,
        spec: DomainSpec,
        created_at: float = 0.0,
        latent: Optional[np.ndarray] = None,
    ) -> InformationItem:
        """Generate one item of a type drawn from the domain's mix."""
        rng = self._streams.stream(f"domain.{spec.name}")
        if latent is None:
            latent = self.sample_latent(spec, rng)
        kinds, probs = self._type_draw(spec)
        kind = kinds[int(rng.choice(len(kinds), p=probs))]
        if kind == "text":
            return self._make_text(spec, latent, created_at, rng)
        if kind == "media":
            return self._make_media(spec, latent, created_at, rng)
        return self._make_compound(spec, latent, created_at, rng)

    def generate(
        self, spec: DomainSpec, count: int, created_at: float = 0.0
    ) -> List[InformationItem]:
        """Generate ``count`` items for a domain at time ``created_at``."""
        return [self.generate_item(spec, created_at) for __ in range(count)]

    # ------------------------------------------------------------------
    def _make_text(
        self,
        spec: DomainSpec,
        latent: np.ndarray,
        created_at: float,
        rng: np.random.Generator,
    ) -> TextDocument:
        length = int(rng.integers(60, 240))
        return TextDocument(
            item_id=make_item_id(spec.name),
            domain=spec.name,
            latent=latent,
            created_at=created_at,
            terms=self.vocabulary.sample_terms(latent, rng, length=length),
            metadata={"kind": "text"},
        )

    def _make_media(
        self,
        spec: DomainSpec,
        latent: np.ndarray,
        created_at: float,
        rng: np.random.Generator,
    ) -> MediaObject:
        return MediaObject(
            item_id=make_item_id(spec.name),
            domain=spec.name,
            latent=latent,
            created_at=created_at,
            true_features=self.render_features(latent, rng),
            media_kind="image",
            metadata={"kind": "media"},
        )

    def _make_compound(
        self,
        spec: DomainSpec,
        latent: np.ndarray,
        created_at: float,
        rng: np.random.Generator,
    ) -> CompoundObject:
        n_parts = int(rng.integers(2, 5))
        # Part latents are perturbations of the compound's latent: every
        # part draws with the parameter topic_space.sample would derive.
        part_alpha = self.topic_space.dirichlet_alpha(2.0, latent)
        parts = []
        for __ in range(n_parts):
            part_latent = rng.dirichlet(part_alpha)
            if rng.random() < 0.5:
                part: InformationItem = self._make_text(spec, part_latent, created_at, rng)
            else:
                part = self._make_media(spec, part_latent, created_at, rng)
            weight = float(rng.uniform(0.5, 1.5))
            parts.append((part, weight))
        return CompoundObject(
            item_id=make_item_id(spec.name),
            domain=spec.name,
            latent=combined_latent(parts),
            created_at=created_at,
            parts=parts,
            layout="catalog" if spec.name == "auction" else "article",
            metadata={"kind": "compound"},
        )
