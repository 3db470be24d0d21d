"""The Agora facade: one object wiring every subsystem together.

An :class:`Agora` owns the simulation kernel, the overlay network, the
corpus machinery, the sources with their registry, the trust and contract
infrastructure, the calibrated matching engine, and the feed service.
Consumers are created against it and interact through
:class:`repro.core.consumer.Consumer`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.config import AgoraConfig
from repro.data.corpus import CorpusGenerator, DomainSpec, iris_domains
from repro.data.features import FeatureExtractor
from repro.data.items import MediaObject
from repro.data.topics import TopicSpace
from repro.data.vocabulary import Vocabulary
from repro.multimodal.feeds import FeedService
from repro.net.failures import ChurnSpec, LoadModel, NodeHealth
from repro.net.messages import Message
from repro.net.router import Network
from repro.net.topology import random_topology
from repro.obs.flight import FlightRecorder
from repro.obs.manifest import RunManifest, config_digest
from repro.obs.profile import SimProfiler
from repro.obs.slo import SLOMonitor, SLOReport
from repro.obs.spans import SpanTracer, derive_trace_id
from repro.qos.monitor import ContractMonitor, default_qos_slos
from repro.query.oracle import RelevanceOracle
from repro.resilience.breaker import BreakerBoard
from repro.resilience.faults import FaultInjector, FaultScript
from repro.resilience.policy import ResilienceConfig
from repro.resilience.runtime import ResilienceRuntime
from repro.sim.kernel import Simulator
from repro.sources.registry import SourceRegistry
from repro.sources.source import InformationSource, SourceQuality
from repro.sources.streams import UpdateStream
from repro.trust.reputation import ReputationSystem
from repro.uncertainty.calibration import BinnedCalibrator
from repro.uncertainty.matching import MatchingEngine, build_matching_engine

#: latent topics of the concept space
N_TOPICS = 10
#: true dimensions of the media feature space
FEATURE_DIMENSIONS = 32
VOCABULARY_SIZE = 2000
#: link probability of the random overlay
TOPOLOGY_EDGE_PROBABILITY = 0.3
#: media items the concept lifter is fitted on
LIFTER_SAMPLE_SIZE = 120
FEATURE_SET = "content_metadata"
#: graded relevance at or above which an item counts as relevant
RELEVANCE_THRESHOLD = 0.75
#: ranges the sources' true coverage and freshness lag are drawn from
COVERAGE_RANGE = (0.6, 1.0)
FRESHNESS_LAG_RANGE = (0.0, 20.0)


class Agora:
    """A fully wired Open Agora instance.

    Use :func:`repro.core.builder.build_agora` rather than constructing
    directly.
    """

    def __init__(self, config: AgoraConfig):
        self.config = config
        self.tracer: Optional[SpanTracer] = (
            SpanTracer(trace_id=derive_trace_id(config.seed))
            if config.enable_tracing
            else None
        )
        self.profiler: Optional[SimProfiler] = (
            SimProfiler() if config.enable_profiling else None
        )
        self.flight: Optional[FlightRecorder] = (
            FlightRecorder() if config.enable_flight_recorder else None
        )
        self.sim = Simulator(
            seed=config.seed,
            tracer=self.tracer,
            profiler=self.profiler,
            flight=self.flight,
        )
        streams = self.sim.rng.spawn("agora")
        self._streams = streams

        # --- latent semantics and content machinery -------------------
        self.topic_space = TopicSpace(N_TOPICS)
        self.vocabulary = Vocabulary(
            self.topic_space, streams.spawn("vocab"),
            vocabulary_size=VOCABULARY_SIZE,
        )
        self.corpus = CorpusGenerator(
            self.topic_space, self.vocabulary, streams.spawn("corpus"),
            feature_dimensions=FEATURE_DIMENSIONS,
        )
        self.extractor = FeatureExtractor(
            FEATURE_DIMENSIONS, streams.spawn("features")
        )
        self.domains: List[DomainSpec] = iris_domains()
        self.engine = self._build_engine()
        self.oracle = RelevanceOracle(
            self.topic_space, relevance_threshold=RELEVANCE_THRESHOLD
        )

        # --- overlay network ------------------------------------------
        # +1 node for consumers to sit on
        self.topology = random_topology(
            max(2, config.n_sources + 1), streams.spawn("topology"),
            TOPOLOGY_EDGE_PROBABILITY,
        )
        self.health = NodeHealth(
            self.sim, self.topology.nodes, streams.spawn("health"),
            spec=ChurnSpec(config.mean_uptime, config.mean_downtime),
            enabled=config.enable_churn,
        )
        self.load = LoadModel(streams.spawn("load"))
        self.network = Network(
            self.sim, self.topology, streams.spawn("net"), health=self.health
        )

        # --- market infrastructure ------------------------------------
        self.registry = SourceRegistry()
        self.slos: Optional[SLOMonitor] = (
            SLOMonitor(self.sim.metrics, default_qos_slos())
            if config.enable_slos
            else None
        )
        self.monitor = ContractMonitor(metrics=self.sim.metrics)
        if self.slos is not None:
            self.monitor.attach_slos(self.slos, now_fn=lambda: self.sim.now)
        self.reputation = ReputationSystem()
        self.monitor.on_compliance(self.reputation.observe)

        # --- resilience infrastructure --------------------------------
        # One breaker board for the whole agora: breakers guard *sources*,
        # and every consumer benefits from failures any of them observed.
        # Contract settlements feed the breakers alongside execution-time
        # declines.
        self.breakers = BreakerBoard(
            config.resilience.breaker,
            now_fn=lambda: self.sim.now,
            trace=self.sim.trace,
        )
        self.monitor.on_compliance(self.breakers.observe_compliance)
        self.faults = FaultInjector(self.sim, self.health)

        # --- content: sources + calibration ----------------------------
        self.sources: Dict[str, InformationSource] = {}
        self._populate_sources()
        self.calibrator = self._fit_calibrator()

        # --- feeds ------------------------------------------------------
        self.feeds = FeedService(
            self.engine, calibrator=self.calibrator, now_fn=lambda: self.sim.now
        )
        self.update_streams: List[UpdateStream] = []
        self._wire_update_streams()
        if config.start_update_streams:
            self.start_feeds()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_engine(self) -> MatchingEngine:
        sample_spec = DomainSpec(
            name="lifter-sample",
            topic_prior={name: 1.0 / self.topic_space.n_topics
                         for name in self.topic_space.names},
            type_mix={"text": 0.0, "media": 1.0, "compound": 0.0},
            concentration=1.0,
        )
        sample = [
            item
            for item in self.corpus.generate(sample_spec, LIFTER_SAMPLE_SIZE)
            if isinstance(item, MediaObject)
        ]
        return build_matching_engine(
            self.vocabulary, self.extractor,
            feature_set=FEATURE_SET, lifter_sample=sample,
            metrics=self.sim.metrics,
        )

    def _draw_quality(self, rng: np.random.Generator) -> SourceQuality:
        config = self.config
        trust_class = ["well-known", "ordinary", "dubious"][
            int(rng.choice(3, p=[0.3, 0.5, 0.2]))
        ]
        return SourceQuality(
            coverage=float(rng.uniform(*COVERAGE_RANGE)),
            freshness_lag=float(rng.uniform(*FRESHNESS_LAG_RANGE)),
            error_rate=float(rng.uniform(*config.error_rate_range)),
            trust_class=trust_class,
            overpromise=float(rng.uniform(*config.overpromise_range)),
        )

    def _populate_sources(self) -> None:
        config = self.config
        rng = self._streams.stream("source-quality")
        nodes = self.topology.nodes
        for index in range(config.n_sources):
            spec = self.domains[index % len(self.domains)]
            source_id = f"{spec.name}-src-{index}"
            node_id = nodes[index % max(1, len(nodes) - 1)]
            source = InformationSource(
                source_id=source_id,
                node_id=node_id,
                domains=[spec.name],
                quality=self._draw_quality(rng),
                engine=self.engine,
                streams=self._streams.spawn("sources"),
                load=self.load,
                health=self.health,
                metrics=self.sim.metrics,
            )
            source.ingest(
                self.corpus.generate(spec, config.items_per_source),
                now=0.0,
                immediate=True,
            )
            self.registry.register(source, now=0.0)
            self.sources[source_id] = source

    def _fit_calibrator(self) -> BinnedCalibrator:
        """Fit score→probability calibration on a held-out labelled sample."""
        rng = self._streams.stream("calibration")
        items = []
        for source in self.sources.values():
            items.extend(source.visible_items(now=1e9))
        calibrator = BinnedCalibrator(n_bins=10)
        if len(items) < 2 or self.config.calibration_pairs < 10:
            return calibrator  # unfitted: raw scores used as probabilities
        scores, labels = [], []
        for __ in range(self.config.calibration_pairs):
            a = items[int(rng.integers(len(items)))]
            b = items[int(rng.integers(len(items)))]
            if a.item_id == b.item_id:
                continue
            scores.append(self.engine.score(a, b))
            truth = self.topic_space.relevance(a.latent, b.latent)
            labels.append(int(truth >= RELEVANCE_THRESHOLD))
        if sum(labels) == 0 or sum(labels) == len(labels):
            return calibrator  # degenerate sample: stay unfitted
        return calibrator.fit(scores, labels)

    def _wire_update_streams(self) -> None:
        for source_id in sorted(self.sources):
            source = self.sources[source_id]
            spec = next(d for d in self.domains if d.name == source.domains[0])
            stream = UpdateStream(
                self.sim, source, self.corpus, spec, self._streams.spawn("updates")
            )
            self.feeds.attach(stream)
            self.update_streams.append(stream)

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    def start_feeds(self) -> None:
        """Begin publishing source updates (Poisson arrivals)."""
        for stream in self.update_streams:
            stream.start()

    def run(self, until: float) -> None:
        """Advance virtual time (churn, update streams, gossip all move)."""
        self.sim.run(until=until)

    def resilience_runtime(
        self, config: Optional[ResilienceConfig] = None
    ) -> ResilienceRuntime:
        """A runtime view over this agora's shared resilience state.

        Policies come from ``config`` (default: the agora config's);
        breakers, jitter stream and trace are shared agora-wide so every
        consumer sees the same source health picture and every run with
        the same seed replays identically.
        """
        return ResilienceRuntime(
            config if config is not None else self.config.resilience,
            registry=self.registry,
            breakers=self.breakers,
            rng=self._streams.stream("resilience.jitter"),
            trace=self.sim.trace,
            now_fn=lambda: self.sim.now,
        )

    def inject_faults(self, script: FaultScript) -> int:
        """Install a fault script on the simulator (returns #windows)."""
        return self.faults.install(script)

    def run_manifest(self, **labels: str) -> RunManifest:
        """Canonical provenance record of this agora's run so far.

        Two agoras built from equal configs and driven identically
        produce equal manifests (labels aside) — ``python -m repro.obs
        diff`` attests it.
        """
        return RunManifest(
            seed=self.config.seed,
            config_digest=config_digest(self.config),
            event_count=self.sim.processed,
            span_count=self.tracer.span_count if self.tracer is not None else 0,
            metrics=self.sim.metrics.snapshot(),
            flight=(
                self.flight.manifest_section() if self.flight is not None else {}
            ),
            labels=dict(labels),
        )

    def slo_report(self) -> Optional[SLOReport]:
        """Burn-rate report over the stock QoS SLOs (``None`` when off)."""
        return self.monitor.slo_report(now=self.sim.now)

    def consumer_node(self) -> str:
        """The overlay node consumers attach to (last node by convention)."""
        return self.topology.nodes[-1]

    def latency_to_source(self, consumer_node: str, source_id: str) -> float:
        """One-way network latency from a consumer node to a source."""
        source = self.registry.source(source_id)
        if source.node_id == consumer_node:
            return 0.0
        message = Message(consumer_node, source.node_id, "probe", size=0.5)
        return self.network.delivery_delay(message)

    def available_domains(self) -> List[str]:
        """Domains advertised by at least one source."""
        return self.registry.domains()

    def __repr__(self) -> str:
        return (
            f"Agora(sources={len(self.sources)}, domains={len(self.domains)}, "
            f"now={self.now:.2f})"
        )
