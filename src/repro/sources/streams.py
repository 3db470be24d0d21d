"""Source update streams — the raw material for automatic feeds.

"She uses automatic feeds of history and tourism magazine articles on new
exhibitions and collections" (§1).  Each :class:`UpdateStream` drives one
source: new items arrive as a Poisson process at the domain's update rate,
are ingested into the source, and are pushed to subscribers (the feed
machinery in :mod:`repro.multimodal.feeds` subscribes here).
"""

from __future__ import annotations

from typing import Callable, List

from repro.data.corpus import CorpusGenerator, DomainSpec
from repro.data.items import InformationItem
from repro.sim.kernel import Simulator
from repro.sim.rng import ScopedStreams
from repro.sources.source import InformationSource

Subscriber = Callable[[str, InformationItem], None]


class UpdateStream:
    """A Poisson stream of new items flowing into one source.

    Parameters
    ----------
    simulator:
        The event kernel.
    source:
        The source receiving the new items.
    generator / spec:
        Corpus generator and the domain spec whose ``update_rate`` sets
        the arrival intensity (items per virtual time unit).
    """

    def __init__(
        self,
        simulator: Simulator,
        source: InformationSource,
        generator: CorpusGenerator,
        spec: DomainSpec,
        streams: ScopedStreams,
    ):
        self.sim = simulator
        self.source = source
        self.generator = generator
        self.spec = spec
        self.rate = spec.update_rate
        self._rng = streams.stream(f"updates.{source.source_id}.{spec.name}")
        self._subscribers: List[Subscriber] = []
        self._running = False
        self.published = 0

    # ------------------------------------------------------------------
    def subscribe(self, subscriber: Subscriber) -> None:
        """Register ``subscriber(source_id, item)`` for every new item."""
        self._subscribers.append(subscriber)

    def start(self) -> None:
        """Begin generating updates (idempotent)."""
        if self._running or self.rate <= 0:
            return
        self._running = True
        self._schedule_next()

    # ------------------------------------------------------------------
    def _schedule_next(self) -> None:
        delay = float(self._rng.exponential(1.0 / self.rate))

        def publish() -> None:
            item = self.generator.generate_item(self.spec, created_at=self.sim.now)
            self.source.ingest([item], now=self.sim.now)
            self.published += 1
            self.sim.trace.count("sources.items_published")
            for subscriber in self._subscribers:
                subscriber(self.source.source_id, item)
            self._schedule_next()

        self.sim.schedule(delay, publish, tag=f"update:{self.source.source_id}")
