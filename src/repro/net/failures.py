"""Failure and load models for overlay nodes.

Section 2 of the paper lists the ways a source may silently drop out of a
request: *overloading, unavailability, or black-listing*.  This module
models the first two; no experiment blacklists anyone, so the third has
no model.

- :class:`NodeHealth` — per-node up/down state driven by an alternating
  renewal (churn) process.
- :class:`LoadModel` — a node declines a new request with a small fixed
  probability (the paper's "declined to participate").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.sim.kernel import Simulator
from repro.sim.rng import ScopedStreams


@dataclass
class ChurnSpec:
    """Parameters of the alternating up/down renewal process."""

    mean_uptime: float = 500.0
    mean_downtime: float = 20.0

    def __post_init__(self) -> None:
        if self.mean_uptime <= 0 or self.mean_downtime <= 0:
            raise ValueError("mean up/down times must be positive")


class NodeHealth:
    """Tracks and evolves up/down state for a set of nodes.

    Downtime/uptime durations are exponential with the configured means;
    transitions are scheduled on the simulator.  Nodes start up.
    """

    def __init__(
        self,
        simulator: Simulator,
        nodes: Iterable[str],
        streams: ScopedStreams,
        spec: Optional[ChurnSpec] = None,
        enabled: bool = True,
    ):
        self._sim = simulator
        self._rng = streams.stream("churn")
        self.spec = spec if spec is not None else ChurnSpec()
        self._up: Dict[str, bool] = {node: True for node in nodes}
        if enabled:
            for node in sorted(self._up):
                self._schedule_transition(node)

    # ------------------------------------------------------------------
    def is_up(self, node: str) -> bool:
        """Whether ``node`` is currently up (unknown nodes are down)."""
        return self._up.get(node, False)

    def nodes(self) -> List[str]:
        """Sorted ids of all tracked nodes."""
        return sorted(self._up)

    def set_state(self, node: str, up: bool) -> None:
        """Force a node's state (used by tests and failure injection)."""
        if node not in self._up:
            raise KeyError(f"unknown node {node!r}")
        self._up[node] = up

    # ------------------------------------------------------------------
    def _schedule_transition(self, node: str) -> None:
        mean = self.spec.mean_uptime if self._up[node] else self.spec.mean_downtime
        delay = float(self._rng.exponential(mean))

        def flip() -> None:
            self.set_state(node, not self._up[node])
            self._sim.trace.count("net.churn_transitions")
            self._schedule_transition(node)

        self._sim.schedule(delay, flip, tag=f"churn:{node}")


@dataclass
class LoadSpec:
    """Decline model parameters."""

    decline_sharpness: float = 4.0  # larger = an idle node declines more rarely

    def __post_init__(self) -> None:
        if self.decline_sharpness < 0:
            raise ValueError("decline_sharpness must be non-negative")


class LoadModel:
    """Random declines of new requests at idle nodes.

    A node declines with probability ``1 / (1 + exp(decline_sharpness))``:
    a logistic decline law in utilisation, centred at capacity, read at
    zero load.  No experiment puts load on a node, so utilisation itself
    is not modelled.
    """

    def __init__(self, streams: ScopedStreams, spec: Optional[LoadSpec] = None):
        self._rng = streams.stream("load")
        self.spec = spec if spec is not None else LoadSpec()
        self.decline_probability = float(
            1.0 / (1.0 + np.exp(self.spec.decline_sharpness))
        )

    def declines(self, node: str) -> bool:
        """Sample the decline decision for a new request at ``node``."""
        return bool(self._rng.random() < self.decline_probability)
