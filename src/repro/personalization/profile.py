"""User profiles.

§5 asks for user models that capture "the personality, background,
interests, and other characteristics" of users, and notes that even the
*negotiation style* belongs in the profile.  A :class:`UserProfile`
therefore carries:

- topic interests (a vector in the shared concept space),
- QoS trade-off weights (query-time vs result-quality preference),
- a risk attitude (§2's choice under uncertainty),
- a negotiation style,
- interaction-mode preferences (query vs browse vs feed, §9).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

import numpy as np

from repro.qos.vector import QoSWeights
from repro.uncertainty.risk import RiskProfile, risk_neutral

NEGOTIATION_STYLES = ("boulware", "conceder", "linear", "tit-for-tat", "firm")
INTERACTION_MODES = ("query", "browse", "feed")


@dataclass
class UserProfile:
    """Everything the agora knows (or believes) about one user.

    Attributes
    ----------
    user_id:
        Stable identity.
    interests:
        Topic-interest vector (non-negative, L1-normalised).
    qos_weights:
        Trade-off weights over QoS dimensions.
    risk:
        Attitude towards uncertain outcomes.
    negotiation_style:
        One of :data:`NEGOTIATION_STYLES`.
    mode_preference:
        Probability of choosing each interaction mode.
    price_sensitivity:
        How much a unit of price subtracts from utility.
    confidence:
        How much evidence backs this profile (observation count).
    """

    user_id: str
    interests: np.ndarray
    qos_weights: QoSWeights = field(default_factory=QoSWeights)
    risk: RiskProfile = field(default_factory=risk_neutral)
    negotiation_style: str = "linear"
    mode_preference: Dict[str, float] = field(
        default_factory=lambda: {"query": 0.6, "browse": 0.25, "feed": 0.15}
    )
    price_sensitivity: float = 0.02
    confidence: float = 0.0

    def __post_init__(self) -> None:
        self.interests = np.asarray(self.interests, dtype=float)
        if np.any(self.interests < -1e-12):
            raise ValueError("interests must be non-negative")
        total = self.interests.sum()
        if total <= 0:
            raise ValueError("interests must have positive mass")
        self.interests = np.clip(self.interests, 0.0, None) / total
        if self.negotiation_style not in NEGOTIATION_STYLES:
            raise ValueError(f"unknown negotiation style {self.negotiation_style!r}")
        if set(self.mode_preference) != set(INTERACTION_MODES):
            raise ValueError(f"mode_preference must cover {INTERACTION_MODES}")
        mode_total = sum(self.mode_preference.values())
        if mode_total <= 0:
            raise ValueError("mode_preference must have positive mass")
        self.mode_preference = {
            k: v / mode_total for k, v in self.mode_preference.items()
        }
        if self.price_sensitivity < 0:
            raise ValueError("price_sensitivity must be non-negative")
        if self.confidence < 0:
            raise ValueError("confidence must be non-negative")

    # ------------------------------------------------------------------
    def interest_in(self, concept: np.ndarray) -> float:
        """Cosine affinity between the profile and a concept vector."""
        concept = np.asarray(concept, dtype=float)
        if concept.shape != self.interests.shape:
            raise ValueError("concept dimensionality mismatch")
        norm_a = np.linalg.norm(self.interests)
        norm_b = np.linalg.norm(concept)
        if norm_a == 0 or norm_b == 0:
            return 0.0
        return float(np.clip(np.dot(self.interests, concept) / (norm_a * norm_b), 0.0, 1.0))

    def similarity(self, other: "UserProfile") -> float:
        """Interest-vector similarity to another profile, in [0, 1]."""
        return self.interest_in(other.interests)

    def with_interests(self, interests: np.ndarray) -> "UserProfile":
        """A copy with a different interest vector."""
        return replace(self, interests=np.asarray(interests, dtype=float))

    def copy(self) -> "UserProfile":
        """A deep-enough copy safe to mutate."""
        return replace(self, interests=self.interests.copy(),
                       mode_preference=dict(self.mode_preference))
