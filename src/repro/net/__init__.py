"""Peer overlay network (substrate).

Public API:

- :class:`Topology` and its builder :func:`random_topology`.
- :class:`Network` — message passing with latency, jitter and drops.
- :class:`Message` — the unit of communication.
- :class:`NodeHealth`, :class:`ChurnSpec` — node up/down churn.
- :class:`LoadModel`, :class:`LoadSpec` — random declines of new requests.
- :class:`GossipProtocol` — epidemic dissemination.
"""

from repro.net.failures import ChurnSpec, LoadModel, LoadSpec, NodeHealth
from repro.net.gossip import GossipProtocol
from repro.net.messages import Message, reset_message_ids
from repro.net.router import Network
from repro.net.topology import (
    LinkSpec,
    Topology,
    random_topology,
)

__all__ = [
    "ChurnSpec",
    "GossipProtocol",
    "LinkSpec",
    "LoadModel",
    "LoadSpec",
    "Message",
    "Network",
    "NodeHealth",
    "Topology",
    "random_topology",
    "reset_message_ids",
]
