"""Collaborative sessions.

"Collaboration is essentially socialization characterized by simultaneity
... synergistic concurrent interactions of multiple (probably, a small
number of) users with the Open Agora.  They have a common goal but seek
relevant information by exploring the market based on their individual
profiles" (§7).

A :class:`CollaborationSession` tracks members, their threads, and the
shared workspace, and computes group-level coverage metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.collaboration.workspace import ExplorationThread, SharedWorkspace
from repro.personalization.profile import UserProfile
from repro.query.model import Query
from repro.query.oracle import RelevanceOracle
from repro.uncertainty.results import UncertainResultSet


@dataclass
class CollaborationSession:
    """A group pursuing one information goal together.

    Attributes
    ----------
    goal_latent:
        The shared information need (ground truth for coverage metrics).
    members:
        Profiles of the participants.
    """

    goal_latent: np.ndarray
    members: Dict[str, UserProfile] = field(default_factory=dict)
    workspace: SharedWorkspace = field(default_factory=SharedWorkspace)
    threads: Dict[int, ExplorationThread] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def add_member(self, profile: UserProfile) -> None:
        """Add a member profile (ids must be unique)."""
        if profile.user_id in self.members:
            raise ValueError(f"member {profile.user_id!r} already in session")
        self.members[profile.user_id] = profile

    def member_ids(self) -> List[str]:
        """Sorted member ids."""
        return sorted(self.members)

    def _require_member(self, user_id: str) -> None:
        if user_id not in self.members:
            raise KeyError(f"{user_id!r} is not a session member")

    # ------------------------------------------------------------------
    def start_thread(self, user_id: str, query: Query) -> ExplorationThread:
        """A member opens a new exploration thread with its first query."""
        self._require_member(user_id)
        thread = ExplorationThread(owner_id=user_id)
        thread.extend(query)
        self.threads[thread.thread_id] = thread
        return thread

    def record_results(
        self,
        user_id: str,
        results: UncertainResultSet,
        time: float = 0.0,
        thread_id: Optional[int] = None,
    ) -> int:
        """Publish a member's results to the shared workspace."""
        self._require_member(user_id)
        return self.workspace.contribute(user_id, results, time=time, thread_id=thread_id)

    # ------------------------------------------------------------------
    def group_coverage(
        self,
        oracle: RelevanceOracle,
        goal_query: Query,
        reachable_relevant: int,
    ) -> float:
        """Fraction of relevant reachable items the group found together."""
        if reachable_relevant <= 0:
            return 1.0
        found = sum(
            1
            for item in self.workspace.items()
            if oracle.is_relevant(goal_query, item)
        )
        return min(1.0, found / reachable_relevant)

    def contribution_balance(self) -> Dict[str, int]:
        """New-item discoveries per member (jealousy/admiration metric)."""
        return {
            member_id: len(self.workspace.contributions_by(member_id))
            for member_id in self.member_ids()
        }
