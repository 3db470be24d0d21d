"""Information sources: collections, registry, update streams (substrate).

Public API:

- :class:`InformationSource`, :class:`SourceQuality`, :class:`SourceAnswer`
  — the independent systems that hold and serve content.
- :class:`SourceRegistry`, :class:`SourceDescriptor` — discovery via
  (possibly optimistic) advertisements.
- :class:`UpdateStream` — Poisson item arrivals feeding a source.
- :class:`CollectionIndex` — append-only, bucketed item index behind sources
  (visibility at ``now`` is a mask over ingest order).
"""

from repro.sources.index import CollectionIndex
from repro.sources.personal import PERSONAL_DOMAIN, PersonalInformationBase
from repro.sources.registry import SourceDescriptor, SourceRegistry
from repro.sources.source import (
    TRUST_CLASSES,
    InformationSource,
    SourceAnswer,
    SourceQuality,
)
from repro.sources.streams import UpdateStream

__all__ = [
    "CollectionIndex",
    "InformationSource",
    "PERSONAL_DOMAIN",
    "PersonalInformationBase",
    "SourceAnswer",
    "SourceDescriptor",
    "SourceQuality",
    "SourceRegistry",
    "TRUST_CLASSES",
    "UpdateStream",
]
