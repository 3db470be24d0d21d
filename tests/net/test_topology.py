"""Tests for overlay topologies."""

import networkx as nx
import pytest

from repro.net import (
    random_topology,
)
from repro.sim import RngStreams


@pytest.fixture
def streams():
    return RngStreams(3).spawn("net")


class TestBuilders:
    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_random_connected(self, streams, n):
        topo = random_topology(n, streams, edge_probability=0.1)
        assert len(topo.nodes) == n
        assert nx.is_connected(topo.graph)

    def test_node_naming(self, streams):
        topo = random_topology(5, streams)
        assert topo.nodes == ["n0", "n1", "n2", "n3", "n4"]

    def test_deterministic_given_seed(self):
        t1 = random_topology(15, RngStreams(9).spawn("net"))
        t2 = random_topology(15, RngStreams(9).spawn("net"))
        assert sorted(t1.graph.edges) == sorted(t2.graph.edges)


class TestLinks:
    def test_link_lookup_symmetric(self, streams):
        topo = random_topology(8, streams)
        a, b = sorted(topo.graph.edges)[0]
        assert topo.link(a, b) == topo.link(b, a)

    def test_link_missing(self, streams):
        topo = random_topology(8, streams)
        a, b = next(
            (a, b) for a in topo.nodes for b in topo.nodes
            if a < b and not topo.graph.has_edge(a, b)
        )
        with pytest.raises(KeyError):
            topo.link(a, b)

    def test_latency_within_range(self, streams):
        topo = random_topology(10, streams, latency_range=(0.5, 0.6))
        for a, b in topo.graph.edges:
            assert 0.5 <= topo.link(a, b).latency <= 0.6


class TestPaths:
    def test_shortest_path_endpoints(self, streams):
        topo = random_topology(12, streams)
        path = topo.shortest_path("n0", "n5")
        assert path[0] == "n0"
        assert path[-1] == "n5"

    def test_path_latency_positive(self, streams):
        topo = random_topology(12, streams)
        path = topo.shortest_path("n0", "n7")
        assert topo.path_latency(path) > 0

    def test_trivial_path_latency_zero(self, streams):
        topo = random_topology(12, streams)
        assert topo.path_latency(["n0"]) == 0.0
