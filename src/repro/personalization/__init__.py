"""Personalization: profiles, learning, storage, integration (paper §5).

Public API:

- :class:`UserProfile`, :data:`NEGOTIATION_STYLES`, :data:`INTERACTION_MODES`.
- :class:`ProfileLearner`, :class:`InteractionEvent`,
  :data:`ACTION_WEIGHTS`.
- :class:`ProfileStore`.
- :class:`LocalProfile`, :func:`integrate_profiles`,
  :func:`integrated_profile`, :class:`IntegrationReport`.
- :class:`PersonalizedRanker`.
"""

from repro.personalization.behavior import (
    ObservedChoice,
    RiskAttitudeLearner,
    classify_negotiation_style,
    fit_concession_exponent,
    trace_from_strategy,
)
from repro.personalization.integration import (
    IntegrationReport,
    LocalProfile,
    integrate_profiles,
    integrated_profile,
)
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
    "IntegrationReport",
    "InteractionEvent",
    "LocalProfile",
    "NEGOTIATION_STYLES",
    "ObservedChoice",
    "PersonalizedRanker",
    "ProfileLearner",
    "ProfileStore",
    "RiskAttitudeLearner",
    "UserProfile",
    "classify_negotiation_style",
    "fit_concession_exponent",
    "trace_from_strategy",
    "integrate_profiles",
    "integrated_profile",
]
