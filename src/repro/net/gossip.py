"""Push gossip for disseminating registry state.

Sources advertise themselves by gossiping small catalog digests to random
neighbours; after O(log n) rounds most of the overlay knows them.  The
registry uses this to stay *eventually* consistent — the paper's agora has
no central catalog authority.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Set

from repro.net.messages import Message
from repro.net.router import Network
from repro.sim.rng import ScopedStreams

GossipHandler = Callable[[str, Any], None]


class GossipProtocol:
    """Epidemic (push) dissemination over the overlay.

    Each node that knows a rumour forwards it to ``fanout`` random
    neighbours every ``round_interval`` time units, for at most
    ``max_rounds`` rounds.  Duplicate suppression is per (node, rumour id).
    """

    def __init__(
        self,
        network: Network,
        streams: ScopedStreams,
        fanout: int = 2,
        round_interval: float = 1.0,
        max_rounds: int = 10,
    ):
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.network = network
        self._rng = streams.stream("gossip")
        self.fanout = fanout
        self.round_interval = round_interval
        self.max_rounds = max_rounds
        self._seen: Dict[str, Set[str]] = {}
        self._subscribers: Dict[str, GossipHandler] = {}

    # ------------------------------------------------------------------
    def subscribe(self, node: str, handler: GossipHandler) -> None:
        """Register ``node`` to receive rumours as ``handler(rumour_id, data)``."""
        self._subscribers[node] = handler
        self._seen.setdefault(node, set())

    def knows(self, node: str, rumour_id: str) -> bool:
        """Whether ``node`` has seen ``rumour_id``."""
        return rumour_id in self._seen.get(node, set())

    # ------------------------------------------------------------------
    def start(self, origin: str, rumour_id: str, data: Any) -> None:
        """Inject a rumour at ``origin`` and begin gossiping."""
        self._learn(origin, rumour_id, data)
        self._schedule_round(origin, rumour_id, data, round_number=0)

    def _learn(self, node: str, rumour_id: str, data: Any) -> None:
        seen = self._seen.setdefault(node, set())
        if rumour_id in seen:
            return
        seen.add(rumour_id)
        handler = self._subscribers.get(node)
        if handler is not None:
            handler(rumour_id, data)

    def _schedule_round(self, node: str, rumour_id: str, data: Any, round_number: int) -> None:
        if round_number >= self.max_rounds:
            return

        def push() -> None:
            neighbors = self.network.topology.neighbors(node)
            if neighbors:
                k = min(self.fanout, len(neighbors))
                chosen = self._rng.choice(len(neighbors), size=k, replace=False)
                for index in chosen:
                    target = neighbors[int(index)]
                    self.network.send(
                        Message(node, target, "gossip", payload=(rumour_id, data), size=0.1)
                    )
            self._schedule_round(node, rumour_id, data, round_number + 1)

        self.network.sim.schedule(self.round_interval, push, tag=f"gossip:{rumour_id}")

    def make_handler(self, node: str) -> Callable[[Message], None]:
        """Build the network-level message handler for ``node``.

        Applications that also receive other message kinds should dispatch
        ``kind == "gossip"`` messages here themselves.
        """

        def handle(message: Message) -> None:
            if message.kind != "gossip":
                return
            rumour_id, data = message.payload
            if not self.knows(node, rumour_id):
                self._learn(node, rumour_id, data)
                self._schedule_round(node, rumour_id, data, round_number=0)

        return handle
