"""Tests for the Agora facade."""

import pytest

from repro import AgoraConfig, build_agora


def _census(agora):
    """Items indexed per source, visible or not."""
    return {
        source_id: len(source.visible_items(float("inf")))
        for source_id, source in sorted(agora.sources.items())
    }


@pytest.fixture(scope="module")
def agora():
    return build_agora(seed=11, n_sources=6, items_per_source=25,
                       calibration_pairs=300)


class TestConfig:
    def test_invalid_sources(self):
        with pytest.raises(ValueError):
            AgoraConfig(n_sources=0)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            AgoraConfig(overpromise_range=(0.9, 0.1))

    def test_negative_calibration_pairs_rejected(self):
        with pytest.raises(ValueError, match="calibration_pairs"):
            AgoraConfig(calibration_pairs=-1)

    def test_builder_rejects_config_plus_overrides(self):
        with pytest.raises(ValueError):
            build_agora(AgoraConfig(), seed=3)


class TestConstruction:
    def test_sources_created(self, agora):
        assert len(agora.sources) == 6
        census = _census(agora)
        assert all(count > 0 for count in census.values())

    def test_domains_covered(self, agora):
        domains = agora.available_domains()
        assert "museum" in domains
        assert len(domains) >= 5  # all iris domains with 6 sources

    def test_registry_consistent(self, agora):
        assert len(agora.registry) == 6
        for source_id in agora.sources:
            assert source_id in agora.registry

    def test_topology_has_consumer_node(self, agora):
        assert agora.consumer_node() in agora.topology.nodes
        assert len(agora.topology.nodes) == 7

    def test_calibrator_fitted(self, agora):
        assert agora.calibrator.is_fitted

    def test_latency_to_source_nonnegative(self, agora):
        node = agora.consumer_node()
        for source_id in agora.sources:
            assert agora.latency_to_source(node, source_id) >= 0.0

    def test_deterministic_given_seed(self):
        a = build_agora(seed=3, n_sources=4, items_per_source=10, calibration_pairs=0)
        b = build_agora(seed=3, n_sources=4, items_per_source=10, calibration_pairs=0)
        assert _census(a) == _census(b)
        assert sorted(a.topology.graph.edges) == sorted(b.topology.graph.edges)

    def test_run_advances_time(self, agora):
        before = agora.now
        agora.run(until=before + 5.0)
        assert agora.now == before + 5.0


class TestFeeds:
    def test_update_streams_wired(self, agora):
        assert len(agora.update_streams) == 6

    def test_feeds_flow_when_started(self):
        agora = build_agora(seed=5, n_sources=4, items_per_source=5,
                            calibration_pairs=0, start_update_streams=True)
        agora.run(until=50.0)
        published = sum(stream.published for stream in agora.update_streams)
        assert published > 0
        assert agora.feeds.items_screened == published
