# module: benchmarks.wallbench.agora_workloads
"""The benchmark's workloads: one agora, three ways of shopping in it.

Every workload builds the same agora and the same eight consumers (drawn
by :class:`repro.workloads.UserPopulationGenerator`), both from
:data:`REFERENCE_SEED`, then runs a closed loop: the consumers take
turns, one ``Consumer.ask`` outstanding at a time.  Workloads differ
only in the queries asked, the planner, and the agora settings listed on
each :class:`Workload`.  See ``README.md`` for why each exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro import Consumer, build_agora
from repro.core.agora import Agora
from repro.core.config import AgoraConfig
from repro.data import reset_item_ids
from repro.multimodal import reset_standing_ids
from repro.net import reset_message_ids
from repro.qos import reset_contract_ids
from repro.query.model import Query, reset_query_ids
from repro.resilience import ResilienceConfig
from repro.sim.rng import RngStreams
from repro.workloads import QueryWorkloadGenerator, UserPopulationGenerator

#: virtual time ``live-churn`` advances before every ask
CHURN_STEP = 5.0

#: seed of everything a run holds fixed: the agora (corpus, sources,
#: calibration), the eight consumers, and the *reference* queries that
#: open every timed phase.  The run's ``--seed`` draws the queries after
#: them.  Per-ask completeness varies about as much as its mean, so
#: answer-quality means over seeded queries moved by 20-40% from seed to
#: seed, far more than a regression bound can absorb; over the fixed
#: reference prefix they are exact, so any change to them is a change in
#: the program.
REFERENCE_SEED = 7


@dataclass(frozen=True)
class Scale:
    """Agora size and loop shape."""

    n_sources: int
    items_per_source: int
    consumers: int
    #: the first ``check`` timed asks are replayed in the other tracing
    #: mode; answers and program counters must match exactly
    check: int
    #: the first ``quality`` timed asks use the reference queries; they
    #: give the answer digest and the answer-quality means
    quality: int


#: the benchmark's agora: 20 sources x 400 items over the five Iris domains
FULL = Scale(n_sources=20, items_per_source=400, consumers=8, check=16, quality=40)
#: a small agora for the benchmark's own smoke tests
TINY = Scale(n_sources=5, items_per_source=30, consumers=3, check=4, quality=6)
SCALES = {"full": FULL, "tiny": TINY}


class QueryStream:
    """The queries of one root seed, kept apart from the agora's streams."""

    def __init__(self, agora: Agora, seed: int):
        streams = RngStreams(seed).spawn("wallbench")
        self.queries = QueryWorkloadGenerator(
            agora.topic_space, agora.vocabulary, streams.spawn("queries"),
            corpus=agora.corpus,
        )
        self.topic_offset = int(
            streams.stream("topic-offset").integers(agora.topic_space.n_topics)
        )
        self.drawn = 0


QueryMaker = Callable[[QueryStream, Consumer], Query]


def interest_query(stream: QueryStream, consumer: Consumer) -> Query:
    """A text-term query drawn from the consumer's ground-truth interests."""
    return stream.queries.interest_query(consumer.active_profile(), k=10)


def similarity_query(stream: QueryStream, consumer: Consumer) -> Query:
    """A media reference-item query; topics rotate from a seeded offset.

    The reference item is minted by the agora's corpus generator (its
    perceptual feature map is the agora's) on the ``query-reference``
    stream, which no source draws from.
    """
    names = stream.queries.topic_space.names
    topic = names[(stream.topic_offset + stream.drawn) % len(names)]
    return stream.queries.similarity_query(topic, k=10)


@dataclass(frozen=True)
class Workload:
    """One workload: queries, planner and agora settings."""

    name: str
    make_query: QueryMaker
    planner: str = "trading"
    #: AgoraConfig overrides beyond the shared size and seed
    overrides: Dict[str, Any] = field(default_factory=dict)
    #: register each consumer's first query as a standing feed and
    #: advance virtual time by CHURN_STEP before every ask
    live: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="topic-static",
            make_query=interest_query,
        ),
        Workload(
            name="similarity-search",
            make_query=similarity_query,
            planner="exhaustive",
        ),
        Workload(
            name="live-churn",
            make_query=interest_query,
            overrides={
                "enable_churn": True,
                "start_update_streams": True,
                "resilience": ResilienceConfig.default_enabled(),
                "enable_tracing": True,
                "enable_profiling": True,
                "enable_flight_recorder": True,
                "enable_slos": True,
            },
            live=True,
        ),
    )
}


def reset_global_ids() -> None:
    """Restart the library's process-global id counters.

    Item, query, message, standing-query and contract ids come from
    module-level counters; two agoras built in one process only replay
    each other when every counter restarts before each build.
    """
    reset_item_ids()
    reset_query_ids()
    reset_message_ids()
    reset_standing_ids()
    reset_contract_ids()


class Session:
    """A ready agora with its consumers and its query stream.

    Building a session is the benchmark's set-up: the agora, the
    consumers, and one warm-up round in which every consumer asks once.
    The stream opens with reference queries (warm-up round and the first
    ``scale.quality`` timed asks) and continues with ``seed``'s queries.
    ``pause`` brackets the benchmark's own calls into the library (minting
    queries), so a traced run does not book them to a layer; the runner
    may replace it once the session is built.
    """

    def __init__(
        self,
        workload: Workload,
        seed: int,
        scale: Scale,
        pause: Callable[[bool], None] = lambda paused: None,
    ):
        reset_global_ids()
        self.workload = workload
        self.pause = pause
        self.config = AgoraConfig(
            seed=REFERENCE_SEED,
            n_sources=scale.n_sources,
            items_per_source=scale.items_per_source,
            **workload.overrides,
        )
        self.agora: Agora = build_agora(self.config)
        # The workload's randomness is the benchmark's, not the agora's:
        # its own root streams keep the program's streams untouched.
        users = UserPopulationGenerator(
            self.agora.topic_space, RngStreams(REFERENCE_SEED).spawn("wallbench.users")
        )
        self.consumers: List[Consumer] = [
            Consumer(self.agora, profile, planner=workload.planner)
            for profile in users.generate_population(scale.consumers)
        ]
        self._reference = QueryStream(self.agora, REFERENCE_SEED)
        self._seeded = QueryStream(self.agora, seed)
        #: warm-up round plus the quality prefix
        self.reference_asks = scale.consumers + scale.quality
        self.asks = 0
        for consumer in self.consumers:
            query = self.next_query(consumer)
            if workload.live:
                consumer.subscribe(query)
            self.advance()
            consumer.ask(query)

    def next_query(self, consumer: Consumer) -> Query:
        """Mint the next query of the stream for ``consumer``."""
        stream = self._reference if self.asks < self.reference_asks else self._seeded
        self.pause(True)
        try:
            query = self.workload.make_query(stream, consumer)
        finally:
            self.pause(False)
        stream.drawn += 1
        self.asks += 1
        return query

    def next_turn(self) -> Tuple[Consumer, Query]:
        """The closed loop's next consumer and its query."""
        consumer = self.consumers[self.asks % len(self.consumers)]
        return consumer, self.next_query(consumer)

    def advance(self) -> None:
        """Move virtual time before an ask (``live`` workloads only)."""
        if self.workload.live:
            self.agora.run(until=self.agora.now + CHURN_STEP)
