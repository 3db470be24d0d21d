"""Personalization: profiles, learning, storage, ranking (paper §5).

Public API:

- :class:`UserProfile`, :data:`NEGOTIATION_STYLES`, :data:`INTERACTION_MODES`.
- :class:`ProfileLearner`, :class:`InteractionEvent`,
  :data:`ACTION_WEIGHTS`.
- :class:`ProfileStore`.
- :class:`PersonalizedRanker`.
"""

from repro.personalization.learning import (
    ACTION_WEIGHTS,
    InteractionEvent,
    ProfileLearner,
)
from repro.personalization.profile import (
    INTERACTION_MODES,
    NEGOTIATION_STYLES,
    UserProfile,
)
from repro.personalization.ranking import PersonalizedRanker
from repro.personalization.store import ProfileStore

__all__ = [
    "ACTION_WEIGHTS",
    "INTERACTION_MODES",
    "InteractionEvent",
    "NEGOTIATION_STYLES",
    "PersonalizedRanker",
    "ProfileLearner",
    "ProfileStore",
    "UserProfile",
]
