"""Social graph of agora users.

Friendship (or collegial) ties carry weights in (0, 1]; social distance is
the weighted shortest path.  The graph feeds affinity computation and
privacy checks ("friends-only" profile parts).
"""

from __future__ import annotations

import networkx as nx


class SocialGraph:
    """An undirected weighted friendship graph."""

    def __init__(self) -> None:
        self._graph = nx.Graph()

    # ------------------------------------------------------------------
    def befriend(self, a: str, b: str, strength: float = 1.0) -> None:
        """Create (or update) a tie; ``strength`` in (0, 1]."""
        if a == b:
            raise ValueError("cannot befriend oneself")
        if not 0.0 < strength <= 1.0:
            raise ValueError("strength must be in (0, 1]")
        # Stronger ties mean *shorter* social distance.
        self._graph.add_edge(a, b, strength=strength, distance=1.0 / strength)

    # ------------------------------------------------------------------
    def are_friends(self, a: str, b: str) -> bool:
        """Whether a direct tie joins ``a`` and ``b``."""
        return self._graph.has_edge(a, b)

    def distance(self, a: str, b: str) -> float:
        """Weighted social distance; inf when disconnected."""
        if a == b:
            return 0.0
        if a not in self._graph or b not in self._graph:
            return float("inf")
        try:
            return nx.shortest_path_length(self._graph, a, b, weight="distance")
        except nx.NetworkXNoPath:
            return float("inf")

    def proximity(self, a: str, b: str) -> float:
        """Social proximity in [0, 1]: 1/(1 + distance)."""
        d = self.distance(a, b)
        if d == float("inf"):
            return 0.0
        return 1.0 / (1.0 + d)

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._graph
