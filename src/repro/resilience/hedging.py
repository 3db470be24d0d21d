"""Hedged requests: duplicating slow or declined leaves to alternates.

The registry's advertised descriptors say which other sources cover the
same domain; the :class:`HedgeSelector` turns that into a deterministic,
breaker-aware preference order.  The executor issues the duplicate and
keeps whichever answer "finishes first"; a late-but-successful duplicate
is still folded into the leaf's result set, which dedups by item id — the
same item arriving from both the primary and the hedge counts once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.resilience.breaker import BreakerBoard

if TYPE_CHECKING:  # avoid load-time cycles through repro.query / repro.sources
    from repro.query.model import Subquery
    from repro.sources.registry import SourceRegistry


@dataclass(frozen=True)
class HedgeOutcome:
    """Bookkeeping for one hedged (or failed-over) leaf."""

    job_id: str
    primary: str
    alternate: str
    primary_elapsed: float
    alternate_elapsed: float
    winner: str


class HedgeSelector:
    """Chooses alternate sources for a subquery.

    Candidates are the registry's advertised coverers of the subquery's
    domain, minus excluded (already-tried) sources and minus sources whose
    breaker is open, ordered by advertised response time then id — a
    deterministic "fastest claimed coverer first" preference.
    """

    def __init__(
        self,
        registry: "SourceRegistry",
        breakers: Optional[BreakerBoard] = None,
    ):
        self.registry = registry
        self.breakers = breakers

    def alternates(
        self, subquery: "Subquery", exclude: Iterable[str] = ()
    ) -> List[str]:
        """Preference-ordered alternate source ids for ``subquery``."""
        excluded = set(exclude)
        ranked: List[Tuple[float, str]] = []
        for descriptor in self.registry.candidates_for(subquery.domain):
            source_id = descriptor.source_id
            if source_id in excluded:
                continue
            if self.breakers is not None and not self.breakers.allow(source_id):
                continue
            advertised = descriptor.advertised.get(subquery.domain)
            claimed_time = (
                advertised.response_time if advertised is not None else float("inf")
            )
            ranked.append((claimed_time, source_id))
        return [source_id for __, source_id in sorted(ranked)]
