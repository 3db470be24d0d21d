"""Message routing over the overlay.

The :class:`Network` binds a :class:`~repro.net.topology.Topology` to a
:class:`~repro.sim.Simulator`: applications register a handler per node and
call :meth:`Network.send`.  Delivery delay is the latency-weighted shortest
path plus transmission time (size / bottleneck bandwidth) plus optional
jitter.  Messages to or through down nodes are dropped (with an optional
failure callback), matching the paper's "system reaction may be
unpredictable".
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.net.failures import NodeHealth
from repro.net.messages import Message
from repro.net.topology import Topology
from repro.obs.spans import NULL_TRACER
from repro.sim.kernel import Simulator
from repro.sim.rng import ScopedStreams

Handler = Callable[[Message], None]
FailureCallback = Callable[[Message, str], None]


class Network:
    """Simulated message-passing layer over an overlay topology.

    Parameters
    ----------
    simulator:
        The discrete-event kernel that carries delivery events.
    topology:
        The overlay graph.
    streams:
        RNG scope for jitter.
    health:
        Optional node up/down model; omitted means all nodes always up.
    jitter_fraction:
        Uniform multiplicative jitter applied to each delivery delay
        (0.1 means ±10%).
    hop_processing:
        Fixed per-hop forwarding delay.
    """

    def __init__(
        self,
        simulator: Simulator,
        topology: Topology,
        streams: ScopedStreams,
        health: Optional[NodeHealth] = None,
        jitter_fraction: float = 0.1,
        hop_processing: float = 0.002,
    ):
        if not 0.0 <= jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")
        self.sim = simulator
        self.topology = topology
        self.health = health
        self._rng = streams.stream("jitter")
        self._jitter = jitter_fraction
        self._hop_processing = hop_processing
        self._handlers: Dict[str, Handler] = {}
        self._path_cache: Dict[tuple, List[str]] = {}
        self.on_drop: Optional[FailureCallback] = None

    # ------------------------------------------------------------------
    def register(self, node: str, handler: Handler) -> None:
        """Install the message handler for ``node``."""
        if node not in self.topology.graph:
            raise KeyError(f"node {node!r} is not in the topology")
        self._handlers[node] = handler

    def _path(self, source: str, target: str) -> List[str]:
        key = (source, target)
        if key not in self._path_cache:
            self._path_cache[key] = self.topology.shortest_path(source, target)
        return self._path_cache[key]

    def _node_up(self, node: str) -> bool:
        return self.health is None or self.health.is_up(node)

    # ------------------------------------------------------------------
    def delivery_delay(self, message: Message) -> float:
        """Compute the end-to-end delay for ``message`` (no drops)."""
        if message.sender == message.recipient:
            return self._hop_processing
        path = self._path(message.sender, message.recipient)
        propagation = self.topology.path_latency(path)
        bottleneck = min(
            self.topology.link(a, b).bandwidth for a, b in zip(path, path[1:])
        )
        transmission = message.size / bottleneck
        processing = self._hop_processing * (len(path) - 1)
        base = propagation + transmission + processing
        if self._jitter > 0:
            base *= 1.0 + float(self._rng.uniform(-self._jitter, self._jitter))
        return base

    def send(self, message: Message) -> bool:
        """Send ``message``; returns ``False`` if dropped immediately.

        Drops happen when the sender, the recipient, or any relay node on
        the path is down at send time.  (A real network would discover this
        later; collapsing it to send time keeps the simulation simple while
        preserving the observable effect: no reply.)
        """
        message.sent_at = self.sim.now
        tracer = self.sim.tracer or NULL_TRACER
        self.sim.trace.count("net.messages_sent")
        self.sim.trace.count("net.bytes_sent", message.size)
        path = (
            [message.sender]
            if message.sender == message.recipient
            else self._path(message.sender, message.recipient)
        )
        down = [node for node in path if not self._node_up(node)]
        if down:
            self.sim.trace.count("net.messages_dropped")
            tracer.event(
                "net.drop", kind=message.kind, node=down[0], at="send"
            )
            if self.on_drop is not None:
                self.on_drop(message, down[0])
            return False
        delay = self.delivery_delay(message)
        self.sim.trace.count("net.hops", max(0, len(path) - 1))

        def deliver() -> None:
            with tracer.span(
                "net.deliver", kind=message.kind, recipient=message.recipient
            ) as span:
                handler = self._handlers.get(message.recipient)
                if handler is None:
                    self.sim.trace.count("net.messages_unhandled")
                    span.annotate(outcome="unhandled")
                    return
                if not self._node_up(message.recipient):
                    self.sim.trace.count("net.messages_dropped")
                    span.annotate(outcome="dropped")
                    if self.on_drop is not None:
                        self.on_drop(message, message.recipient)
                    return
                self.sim.trace.count("net.messages_delivered")
                self.sim.trace.observe(
                    "net.delivery_delay", self.sim.now - message.sent_at
                )
                handler(message)

        with tracer.span(
            "net.send", kind=message.kind, sender=message.sender,
            recipient=message.recipient, hops=max(0, len(path) - 1),
        ):
            # Scheduling inside the span makes the eventual delivery a
            # child of the send, which is itself a child of whatever
            # triggered it (gossip round, feed push, ...).
            self.sim.schedule(delay, deliver, tag=f"deliver:{message.kind}")
        return True
