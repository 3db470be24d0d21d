"""Trust and reputation (cross-cutting; feeds QoS "trust" dimension).

Public API:

- :class:`BetaReputation`, :class:`ReputationSystem` — beta reputation
  with exponential forgetting.
"""

from repro.trust.reputation import BetaReputation, ReputationSystem

__all__ = [
    "BetaReputation",
    "ReputationSystem",
]
