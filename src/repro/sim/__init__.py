"""Discrete-event simulation kernel (substrate).

Public API:

- :class:`Simulator` — the event loop with a virtual clock.
- :class:`Event`, :class:`EventQueue` — scheduled callbacks.
- :class:`RngStreams`, :class:`ScopedStreams` — deterministic named RNG streams.
- :class:`TraceRecorder` — counters and observations.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.rng import RngStreams, ScopedStreams, derive_seed
from repro.sim.trace import TraceRecorder

__all__ = [
    "Event",
    "EventQueue",
    "RngStreams",
    "ScopedStreams",
    "SimulationError",
    "Simulator",
    "TraceRecorder",
    "derive_seed",
]
