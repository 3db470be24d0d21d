"""Privacy policies over profile parts.

"The set of others' profiles and queries that someone has access to must
be restricted based on access rights that have been granted according to
users' privacy concerns" (§6).  Each profile part (interests, QoS weights,
interaction history, queries) has a visibility level; access checks combine
the level with the social graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict

from repro.social.graph import SocialGraph

PROFILE_PARTS = ("interests", "qos_weights", "history", "queries")


class Visibility(Enum):
    """Access levels for profile parts."""
    PUBLIC = "public"
    FRIENDS = "friends"
    PRIVATE = "private"


@dataclass
class PrivacyPolicy:
    """One user's visibility settings per profile part."""

    owner_id: str
    levels: Dict[str, Visibility] = field(
        default_factory=lambda: {
            "interests": Visibility.FRIENDS,
            "qos_weights": Visibility.PRIVATE,
            "history": Visibility.PRIVATE,
            "queries": Visibility.FRIENDS,
        }
    )

    def __post_init__(self) -> None:
        unknown = set(self.levels) - set(PROFILE_PARTS)
        if unknown:
            raise ValueError(f"unknown profile parts: {sorted(unknown)}")
        for part in PROFILE_PARTS:
            self.levels.setdefault(part, Visibility.PRIVATE)

    def set_level(self, part: str, level: Visibility) -> None:
        """Change the visibility of one profile part."""
        if part not in PROFILE_PARTS:
            raise ValueError(f"unknown profile part {part!r}")
        self.levels[part] = level

    def allows(self, part: str, viewer_id: str, graph: SocialGraph) -> bool:
        """Whether ``viewer_id`` may read ``part`` of the owner's profile."""
        if part not in PROFILE_PARTS:
            raise ValueError(f"unknown profile part {part!r}")
        if viewer_id == self.owner_id:
            return True
        level = self.levels[part]
        if level is Visibility.PUBLIC:
            return True
        if level is Visibility.FRIENDS:
            return graph.are_friends(self.owner_id, viewer_id)
        return False


class PrivacyRegistry:
    """All users' privacy policies (default: the conservative policy)."""

    def __init__(self, graph: SocialGraph):
        self.graph = graph
        self._policies: Dict[str, PrivacyPolicy] = {}

    def policy(self, owner_id: str) -> PrivacyPolicy:
        """The owner's policy (created with defaults on first use)."""
        if owner_id not in self._policies:
            self._policies[owner_id] = PrivacyPolicy(owner_id)
        return self._policies[owner_id]

    def set_policy(self, policy: PrivacyPolicy) -> None:
        """Install or replace an owner's policy."""
        self._policies[policy.owner_id] = policy

    def can_see(self, viewer_id: str, owner_id: str, part: str) -> bool:
        """Whether ``viewer_id`` may read ``part`` of ``owner_id``."""
        return self.policy(owner_id).allows(part, viewer_id, self.graph)
