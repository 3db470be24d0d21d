"""Core facade: the Agora and its consumers.

Public API:

- :class:`Agora` — a fully wired Open Agora instance.
- :class:`AgoraConfig` — construction knobs.
- :func:`build_agora` — convenience constructor.
- :class:`Consumer`, :class:`ConsumerResult` — the user-side agent.
"""

from repro.core.agora import Agora
from repro.core.builder import build_agora
from repro.core.config import AgoraConfig
from repro.core.consumer import PLANNER_KINDS, Consumer, ConsumerResult
from repro.core.market import AsyncMarketplace

__all__ = [
    "Agora",
    "AgoraConfig",
    "AsyncMarketplace",
    "Consumer",
    "ConsumerResult",
    "PLANNER_KINDS",
    "build_agora",
]
