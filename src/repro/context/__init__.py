"""Contextualization: context model and conditional profiles (paper §8).

Public API:

- :class:`Context`, :data:`CONTEXT_DIMENSIONS`, :data:`TASKS`, :data:`TIMES_OF_DAY`.
- :class:`ActivationRule`, :class:`ProfileOverlay`.
- :class:`ConditionalProfile`.
- :class:`ContextInferencer`, :class:`ActivityObservation`.
"""

from repro.context.conditional import ConditionalProfile
from repro.context.inference import ActivityObservation, ContextInferencer
from repro.context.model import (
    ACTIVITIES,
    CONTEXT_DIMENSIONS,
    TASKS,
    TIMES_OF_DAY,
    Context,
)
from repro.context.rules import ActivationRule, ProfileOverlay

__all__ = [
    "ACTIVITIES",
    "ActivationRule",
    "ActivityObservation",
    "CONTEXT_DIMENSIONS",
    "ConditionalProfile",
    "Context",
    "ContextInferencer",
    "ProfileOverlay",
    "TASKS",
    "TIMES_OF_DAY",
]
