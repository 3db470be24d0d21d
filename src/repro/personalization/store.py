"""Profile storage.

"Storage and indexing of profiles, as well as selection and retrieval of
the appropriate profile parts in each case, are technical problems that
require solutions also" (§5).  The store keeps profiles keyed by user.
"""

from __future__ import annotations

from typing import Dict, List

from repro.personalization.profile import UserProfile


class ProfileStore:
    """In-memory profile database."""

    def __init__(self) -> None:
        self._profiles: Dict[str, UserProfile] = {}

    # ------------------------------------------------------------------
    def save(self, profile: UserProfile) -> None:
        """Insert or replace a profile."""
        self._profiles[profile.user_id] = profile

    def load(self, user_id: str) -> UserProfile:
        """Return the stored profile or raise ``KeyError``."""
        try:
            return self._profiles[user_id]
        except KeyError:
            raise KeyError(f"no profile stored for {user_id!r}") from None

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._profiles

    def user_ids(self) -> List[str]:
        """Sorted ids of stored profiles."""
        return sorted(self._profiles)
