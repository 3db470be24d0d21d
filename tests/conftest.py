"""Shared fixtures for the test suite."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.data import (
    CorpusGenerator,
    DomainSpec,
    FeatureExtractor,
    TopicSpace,
    Vocabulary,
    reset_item_ids,
)
from repro.query import Query, QueryKind, RelevanceOracle
from repro.sim import RngStreams
from repro.sources import InformationSource, SourceQuality
from repro.uncertainty import build_matching_engine


# Hypothesis runs under pinned, derandomized profiles so the property
# suites are reproducible everywhere: "ci" (the default) replays the same
# deterministic example sequence on every machine, "dev" is a smaller
# subset for quick local loops.  Select with HYPOTHESIS_PROFILE=dev.
settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "dev",
    derandomize=True,
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(autouse=True)
def _reset_ids():
    """Keep item ids deterministic within each test."""
    reset_item_ids()
    yield


@pytest.fixture
def streams():
    return RngStreams(seed=1234).spawn("test")


@pytest.fixture
def topic_space():
    return TopicSpace(n_topics=10)


@pytest.fixture
def vocabulary(topic_space, streams):
    return Vocabulary(topic_space, streams.spawn("vocab"), vocabulary_size=500, terms_per_topic=60)


@pytest.fixture
def corpus_generator(topic_space, vocabulary, streams):
    return CorpusGenerator(
        topic_space, vocabulary, streams.spawn("corpus"), feature_dimensions=16
    )


@pytest.fixture
def matching_engine(corpus_generator, vocabulary, streams):
    extractor = FeatureExtractor(16, streams.spawn("extract"))
    sample_spec = DomainSpec(
        name="lifter-sample",
        topic_prior={"folk-jewelry": 0.5, "dance-forms": 0.5},
        type_mix={"text": 0.0, "media": 1.0, "compound": 0.0},
        concentration=1.0,
    )
    sample = corpus_generator.generate(sample_spec, 60)
    return build_matching_engine(vocabulary, extractor, lifter_sample=sample)


@pytest.fixture
def oracle(topic_space):
    return RelevanceOracle(topic_space, relevance_threshold=0.75)


def make_source(
    source_id,
    corpus_generator,
    matching_engine,
    streams,
    domain_spec=None,
    n_items=40,
    quality=None,
    node_id=None,
    health=None,
    load=None,
    items=None,
):
    """Helper: a populated source over one domain.

    Pass ``items`` to ingest a pre-generated collection (e.g. to build
    mirror sources sharing one corpus); otherwise a fresh one is drawn.
    """
    spec = domain_spec or DomainSpec(
        name="museum",
        topic_prior={"folk-jewelry": 0.6, "museum-exhibitions": 0.4},
    )
    source = InformationSource(
        source_id=source_id,
        node_id=node_id or f"node-{source_id}",
        domains=[spec.name],
        quality=quality or SourceQuality(coverage=1.0, freshness_lag=0.0, error_rate=0.0),
        engine=matching_engine,
        streams=streams.spawn(f"src.{source_id}"),
        health=health,
        load=load,
    )
    source.ingest(
        items if items is not None else corpus_generator.generate(spec, n_items),
        now=0.0,
    )
    return source


def peak_topic(topic_space, vector):
    """Name of the dominant topic of ``vector``."""
    return topic_space.names[int(np.argmax(vector))]


def refuse(source):
    """Make ``source`` decline every request from now on."""
    source.accepts = lambda consumer_id, now: (False, "refused")


def make_topic_query(topic_space, vocabulary, topic, k=10, seed=0, **kwargs):
    """Helper: a topic query with known latent intent."""
    rng = np.random.default_rng(seed)
    intent = topic_space.basis(topic, weight=0.9)
    terms = vocabulary.sample_terms(intent, rng, length=60)
    return Query(
        kind=QueryKind.TOPIC,
        terms=terms,
        intent_latent=intent,
        k=k,
        **kwargs,
    )
