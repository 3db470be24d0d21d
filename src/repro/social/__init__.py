"""Socialization: graphs, privacy, affinity, fusion (paper §6).

Public API:

- :class:`SocialGraph` — weighted friendship graph.
- :class:`PrivacyPolicy`, :class:`PrivacyRegistry`, :class:`Visibility`,
  :data:`PROFILE_PARTS` — access control on profile parts.
- :func:`affinity`, :class:`AffinityIndex`, :class:`AffineNeighbour`.
- :class:`SocialRanker`.
"""

from repro.social.affinity import AffineNeighbour, AffinityIndex, affinity
from repro.social.fusion import SocialRanker
from repro.social.graph import SocialGraph
from repro.social.privacy import (
    PROFILE_PARTS,
    PrivacyPolicy,
    PrivacyRegistry,
    Visibility,
)
from repro.social.trust import SocialTrustView, TrustOpinion

__all__ = [
    "AffineNeighbour",
    "AffinityIndex",
    "PROFILE_PARTS",
    "PrivacyPolicy",
    "PrivacyRegistry",
    "SocialGraph",
    "SocialRanker",
    "SocialTrustView",
    "TrustOpinion",
    "Visibility",
    "affinity",
]
