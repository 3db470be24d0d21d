"""Observable feature sets over media objects.

Section 2 of the paper stresses that *which feature set to use* is itself
uncertain: colour histograms, texture, or content metadata capture user
perception to different degrees.  We model a feature set as a fixed random
projection of the object's true perceptual vector plus observation noise.
Fidelity (how much of the truth survives) and noise level vary per set, so
experiments can quantify matching quality as a function of feature choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np

from repro.data.items import MediaObject
from repro.sim.rng import ScopedStreams


@dataclass(frozen=True)
class FeatureSetSpec:
    """Static description of one observable feature set.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"color_histogram"``.
    dimensions:
        Output dimensionality of the projection.
    fidelity:
        Fraction (0..1) of signal preserved; the rest is replaced by noise.
    noise_scale:
        Standard deviation of additive Gaussian observation noise.
    cost:
        Relative extraction cost, charged by sources that compute it.
    """

    name: str
    dimensions: int
    fidelity: float
    noise_scale: float
    cost: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError("fidelity must be in [0, 1]")
        if self.dimensions < 1:
            raise ValueError("dimensions must be >= 1")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be non-negative")


DEFAULT_FEATURE_SETS: Mapping[str, FeatureSetSpec] = {
    "color_histogram": FeatureSetSpec(
        "color_histogram", 16, fidelity=0.45, noise_scale=0.25, cost=1.0,
    ),
    "texture": FeatureSetSpec("texture", 12, fidelity=0.55, noise_scale=0.20, cost=1.5),
    "shape": FeatureSetSpec("shape", 8, fidelity=0.50, noise_scale=0.30, cost=1.2),
    "content_metadata": FeatureSetSpec(
        "content_metadata", 24, fidelity=0.85, noise_scale=0.08, cost=4.0,
    ),
}


class FeatureExtractor:
    """Computes observable features of media objects.

    The projection matrix of each feature set is derived deterministically
    from the extractor's RNG scope, so every component of a simulation sees
    the same projections.  Observation noise is drawn per call, keyed by the
    item id, making repeated extraction of the same item deterministic too.
    """

    def __init__(
        self,
        true_dimensions: int,
        streams: ScopedStreams,
        specs: Optional[Mapping[str, FeatureSetSpec]] = None,
    ):
        if true_dimensions < 1:
            raise ValueError("true_dimensions must be >= 1")
        self.true_dimensions = true_dimensions
        self._streams = streams
        self.specs: Dict[str, FeatureSetSpec] = dict(
            specs if specs is not None else DEFAULT_FEATURE_SETS
        )
        self._projections: Dict[str, np.ndarray] = {}
        self._combined: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    def feature_set_names(self) -> List[str]:
        """Sorted names of registered feature sets."""
        return sorted(self.specs)

    def spec(self, name: str) -> FeatureSetSpec:
        """Look up a feature-set spec by name."""
        try:
            return self.specs[name]
        except KeyError:
            raise KeyError(
                f"unknown feature set {name!r}; known: {self.feature_set_names()}"
            ) from None

    def add_feature_set(self, spec: FeatureSetSpec) -> None:
        """Register an additional feature set (e.g. a combined one)."""
        self.specs[spec.name] = spec
        self._projections.pop(spec.name, None)

    def _projection(self, name: str) -> np.ndarray:
        if name not in self._projections:
            spec = self.spec(name)
            rng = self._streams.stream(f"projection.{name}")
            matrix = rng.normal(size=(spec.dimensions, self.true_dimensions))
            matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
            self._projections[name] = matrix
        return self._projections[name]

    # ------------------------------------------------------------------
    def extract(self, obj: MediaObject, feature_set: str) -> np.ndarray:
        """Return the observable feature vector of ``obj``.

        The result blends the projected true signal (weight = fidelity)
        with deterministic per-item noise (weight = 1 - fidelity) plus
        additive Gaussian observation noise.

        Extraction is a pure function of ``(feature_set, item)``: the
        noise generator is re-derived from its key on every call, so a
        repeated extraction — a cache rebuilt after eviction, the media
        matcher and the concept lifter extracting the same item in either
        order — always reproduces the same vector.  Downstream caches
        depend on this.
        """
        spec = self.spec(feature_set)
        projection = self._projection(feature_set)
        truth = np.asarray(obj.true_features, dtype=float)
        if truth.shape != (self.true_dimensions,):
            raise ValueError(
                f"object {obj.item_id} has feature dim {truth.shape}, "
                f"expected ({self.true_dimensions},)"
            )
        signal = projection @ truth
        noise_rng = self._streams.fresh(f"noise.{feature_set}.{obj.item_id}")
        distractor = noise_rng.normal(size=spec.dimensions)
        observation_noise = noise_rng.normal(scale=spec.noise_scale, size=spec.dimensions)
        observed = (
            spec.fidelity * signal
            + (1.0 - spec.fidelity) * distractor
            + observation_noise
        )
        norm = np.linalg.norm(observed)
        return observed / norm if norm > 0 else observed

    def extract_many(
        self, objects: Iterable[MediaObject], feature_set: str
    ) -> np.ndarray:
        """Stack features of many objects into a matrix (rows = objects)."""
        rows = [self.extract(obj, feature_set) for obj in objects]
        if not rows:
            return np.zeros((0, self.spec(feature_set).dimensions))
        return np.stack(rows)

    def combined_spec(self, names: Iterable[str], label: str = "combined") -> FeatureSetSpec:
        """Create and register a concatenated feature set from ``names``."""
        specs = [self.spec(name) for name in names]
        if not specs:
            raise ValueError("need at least one feature set to combine")
        combined = FeatureSetSpec(
            name=label,
            dimensions=sum(s.dimensions for s in specs),
            fidelity=float(np.mean([s.fidelity for s in specs])),
            noise_scale=float(np.mean([s.noise_scale for s in specs])),
            cost=sum(s.cost for s in specs),
        )
        self.add_feature_set(combined)
        self._combined[label] = [s.name for s in specs]
        return combined

    def extract_combined(self, obj: MediaObject, label: str) -> np.ndarray:
        """Extract a previously registered combined feature set."""
        members = self._combined.get(label)
        if not members:
            raise KeyError(f"no combined feature set registered as {label!r}")
        parts = [self.extract(obj, member) for member in members]
        concatenated = np.concatenate(parts)
        norm = np.linalg.norm(concatenated)
        return concatenated / norm if norm > 0 else concatenated
