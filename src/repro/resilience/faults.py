"""Deterministic, scriptable fault injection.

A :class:`FaultScript` is plain data — a list of timed outage windows —
and a :class:`FaultInjector` schedules each window as ordinary simulator
events on top of the existing failure machinery: :meth:`NodeHealth.set_state`
down at the window start, up again at its end.

Because every effect flows through the simulator's event queue and the
seeded RNG streams, running the same script twice with the same seed
replays bit-for-bit — the Open Data Fabric notion of reproducible
recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.net.failures import NodeHealth
from repro.sim.kernel import Simulator

@dataclass(frozen=True)
class FaultEvent:
    """One outage window on one node."""

    node: str
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    @property
    def end(self) -> float:
        """Virtual time at which the window closes."""
        return self.start + self.duration


@dataclass
class FaultScript:
    """An ordered collection of fault windows (pure data, reusable)."""

    events: List[FaultEvent] = field(default_factory=list)

    def outage(self, node: str, start: float, duration: float) -> "FaultScript":
        """Take ``node`` down for ``[start, start + duration)``."""
        self.events.append(FaultEvent(node, start, duration))
        return self

    def __len__(self) -> int:
        return len(self.events)


class FaultInjector:
    """Installs fault scripts onto a simulator's failure machinery."""

    def __init__(self, simulator: Simulator, health: NodeHealth):
        self._sim = simulator
        self._health = health
        self._outage_depth: Dict[str, int] = {}
        self.installed: List[FaultEvent] = []

    # ------------------------------------------------------------------
    def install(self, script: FaultScript) -> int:
        """Schedule every window in ``script``; returns how many installed."""
        for event in script.events:
            self._install_event(event)
        return len(script.events)

    def _install_event(self, event: FaultEvent) -> None:
        # Fail fast on unknown nodes: a KeyError surfacing later from
        # inside sim.run() would be far from the scripting mistake.
        if event.node not in self._health.nodes():
            raise ValueError(f"outage on unknown node {event.node!r}")
        self._schedule(event.start, lambda: self._begin_outage(event.node))
        self._schedule(event.end, lambda: self._end_outage(event.node))
        self.installed.append(event)
        self._sim.trace.count("faults.scheduled_outage")

    # ------------------------------------------------------------------
    def _schedule(self, time: float, action: Callable[[], object]) -> None:
        self._sim.at(max(time, self._sim.now), action, tag="fault")

    def _begin_outage(self, node: str) -> None:
        # Overlapping windows compose: the node stays down until the last
        # covering window closes.
        depth = self._outage_depth.get(node, 0)
        self._outage_depth[node] = depth + 1
        if depth == 0:
            self._health.set_state(node, False)
            self._sim.trace.count("faults.outage_transitions")

    def _end_outage(self, node: str) -> None:
        depth = self._outage_depth.get(node, 0) - 1
        self._outage_depth[node] = max(0, depth)
        if depth == 0:
            self._health.set_state(node, True)
            self._sim.trace.count("faults.outage_transitions")
