"""Source registry: the agora's (imperfect) yellow pages.

Consumers discover sources through advertised descriptors, not ground
truth.  Descriptors are produced by the sources themselves (with their
optimism bias) and may be stale — the §2 "identification of appropriate
resources" uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.qos.vector import QoSVector
from repro.sources.source import InformationSource


@dataclass
class SourceDescriptor:
    """The advertised profile of one source, as known to the registry."""

    source_id: str
    node_id: str
    domains: Tuple[str, ...]
    advertised: Dict[str, QoSVector] = field(default_factory=dict)  # per domain
    advertised_at: float = 0.0
    trust_class: str = "ordinary"


class SourceRegistry:
    """Directory of advertised source descriptors.

    The registry stores what each source advertised when it registered.
    Lookups never consult the actual source objects, preserving the
    advertised/actual gap.
    """

    def __init__(self) -> None:
        self._descriptors: Dict[str, SourceDescriptor] = {}
        self._sources: Dict[str, InformationSource] = {}
        # Inverted index: domain -> ids of sources advertising it, so
        # per-domain candidate lookup avoids scanning every descriptor.
        self._by_domain: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    def register(self, source: InformationSource, now: float = 0.0) -> SourceDescriptor:
        """Add ``source`` and record its advertised descriptor."""
        descriptor = SourceDescriptor(
            source_id=source.source_id,
            node_id=source.node_id,
            domains=source.domains,
            advertised={
                domain: source.advertised_quality(now, domain)
                for domain in source.domains
            },
            advertised_at=now,
            trust_class=source.quality.trust_class,
        )
        self._descriptors[source.source_id] = descriptor
        self._sources[source.source_id] = source
        for domain in descriptor.domains:
            self._by_domain.setdefault(domain, set()).add(descriptor.source_id)
        return descriptor

    # ------------------------------------------------------------------
    def source(self, source_id: str) -> InformationSource:
        """The live source object (used to actually send it work)."""
        try:
            return self._sources[source_id]
        except KeyError:
            raise KeyError(f"unknown source {source_id!r}") from None

    def candidates_for(self, domain: str) -> List[SourceDescriptor]:
        """Descriptors of sources advertising coverage of ``domain``."""
        ids = self._by_domain.get(domain, set())
        return [self._descriptors[source_id] for source_id in sorted(ids)]

    def domains(self) -> List[str]:
        """All domains advertised by at least one source."""
        return sorted(self._by_domain)

    def __len__(self) -> int:
        return len(self._descriptors)

    def __contains__(self, source_id: str) -> bool:
        return source_id in self._descriptors
