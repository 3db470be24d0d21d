"""Tests for the source registry."""

import pytest

from repro.data import DomainSpec
from repro.sources import SourceRegistry

from tests.conftest import make_source


@pytest.fixture
def registry(corpus_generator, matching_engine, streams):
    registry = SourceRegistry()
    museum = DomainSpec(name="museum", topic_prior={"folk-jewelry": 1.0})
    auction = DomainSpec(name="auction", topic_prior={"auction-market": 1.0})
    registry.register(
        make_source("m1", corpus_generator, matching_engine, streams, domain_spec=museum)
    )
    registry.register(
        make_source("m2", corpus_generator, matching_engine, streams, domain_spec=museum)
    )
    registry.register(
        make_source("a1", corpus_generator, matching_engine, streams, domain_spec=auction)
    )
    return registry


class TestRegistry:
    def test_len_and_contains(self, registry):
        assert len(registry) == 3
        assert "m1" in registry
        assert "zzz" not in registry

    def test_candidates_for_domain(self, registry):
        museum_sources = registry.candidates_for("museum")
        assert [d.source_id for d in museum_sources] == ["m1", "m2"]

    def test_candidates_empty_domain(self, registry):
        assert registry.candidates_for("no-such-domain") == []

    def test_domains(self, registry):
        assert registry.domains() == ["auction", "museum"]

    def test_source_lookup(self, registry):
        assert registry.source("m1").source_id == "m1"

    def test_unknown_source(self, registry):
        with pytest.raises(KeyError):
            registry.source("nope")

    def test_descriptor_snapshot_is_stale(
        self, registry, corpus_generator, matching_engine, streams
    ):
        """Ingesting more items does not change the stored advertisement."""
        (before,) = [d.advertised["museum"].response_time
                     for d in registry.candidates_for("museum") if d.source_id == "m1"]
        source = registry.source("m1")
        spec = DomainSpec(name="museum", topic_prior={"folk-jewelry": 1.0})
        source.ingest(corpus_generator.generate(spec, 100), now=0.0)
        (after,) = [d.advertised["museum"].response_time
                    for d in registry.candidates_for("museum") if d.source_id == "m1"]
        assert before == after
