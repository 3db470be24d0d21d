"""Profile activation rules and overlays.

"The profile of a person itself may include alternative choices for its
various parts, with each choice activated when certain conditions hold"
(§8).  An :class:`ActivationRule` is a conjunctive condition over context
dimensions; a :class:`ProfileOverlay` is the partial profile it activates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Union

import numpy as np

from repro.context.model import CONTEXT_DIMENSIONS, Context
from repro.personalization.profile import UserProfile
from repro.qos.vector import QoSWeights

ConditionValue = Union[str, Set[str], frozenset]


@dataclass
class ActivationRule:
    """Conjunction of per-dimension conditions.

    Each condition maps a dimension to an allowed value or a set of
    allowed values.  ``companions`` conditions use the special values
    ``"alone"`` / ``"accompanied"``.
    """

    conditions: Dict[str, ConditionValue]
    name: str = ""

    def __post_init__(self) -> None:
        unknown = set(self.conditions) - set(CONTEXT_DIMENSIONS)
        if unknown:
            raise ValueError(f"unknown context dimensions: {sorted(unknown)}")
        if not self.conditions:
            raise ValueError("rule needs at least one condition")

    def matches(self, context: Context) -> bool:
        """Whether every condition holds under ``context``."""
        for dimension, allowed in self.conditions.items():
            if dimension == "companions":
                state = "accompanied" if context.companions else "alone"
                if isinstance(allowed, str):
                    if state != allowed:
                        return False
                elif state not in allowed:
                    return False
                continue
            value = context.value(dimension)
            if isinstance(allowed, str):
                if value != allowed:
                    return False
            elif value not in allowed:
                return False
        return True

    @property
    def specificity(self) -> int:
        """More conditions = more specific; used for overlay ordering."""
        return len(self.conditions)


@dataclass
class ProfileOverlay:
    """A partial profile applied on top of the base when its rule fires.

    ``interest_shift`` is *added* to the base interests (then renormalised),
    letting one overlay emphasise topics without erasing the base.
    Other fields replace the base value outright when set.
    """

    interest_shift: Optional[np.ndarray] = None
    qos_weights: Optional[QoSWeights] = None
    mode_preference: Optional[Dict[str, float]] = None
    negotiation_style: Optional[str] = None
    price_sensitivity: Optional[float] = None

    def apply(self, profile: UserProfile) -> UserProfile:
        """Return the profile with this overlay applied."""
        updated = profile.copy()
        if self.interest_shift is not None:
            shift = np.asarray(self.interest_shift, dtype=float)
            if shift.shape != profile.interests.shape:
                raise ValueError("interest_shift dimensionality mismatch")
            combined = np.clip(profile.interests + shift, 1e-9, None)
            updated = updated.with_interests(combined)
        if self.qos_weights is not None:
            updated.qos_weights = self.qos_weights
        if self.mode_preference is not None:
            total = sum(self.mode_preference.values())
            updated.mode_preference = {
                k: v / total for k, v in self.mode_preference.items()
            }
        if self.negotiation_style is not None:
            updated.negotiation_style = self.negotiation_style
        if self.price_sensitivity is not None:
            updated.price_sensitivity = self.price_sensitivity
        return updated
