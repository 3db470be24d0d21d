"""Tests for the gossip protocol."""

import pytest

from repro.net import GossipProtocol, Network, random_topology
from repro.sim import RngStreams, Simulator


@pytest.fixture
def gossip_setup():
    sim = Simulator(seed=8)
    streams = sim.rng.spawn("net")
    topo = random_topology(16, streams, edge_probability=0.25)
    net = Network(sim, topo, streams, jitter_fraction=0.0)
    gossip = GossipProtocol(net, sim.rng.spawn("gossip"), fanout=3, max_rounds=12)
    for node in topo.nodes:
        gossip.subscribe(node, lambda rid, data: None)
        net.register(node, gossip.make_handler(node))
    return sim, topo, net, gossip


class TestGossip:
    def test_rumour_reaches_most_nodes(self, gossip_setup):
        sim, topo, net, gossip = gossip_setup
        gossip.start("n0", "rumour-1", {"hello": 1})
        sim.run(until=60.0)
        knowing = sum(gossip.knows(node, "rumour-1") for node in topo.nodes)
        assert knowing / len(topo.nodes) >= 0.9

    def test_origin_knows_immediately(self, gossip_setup):
        __, __, __, gossip = gossip_setup
        gossip.start("n0", "r", None)
        assert gossip.knows("n0", "r")

    def test_handlers_invoked_once_per_node(self, gossip_setup):
        sim, topo, net, gossip = gossip_setup
        deliveries = []
        gossip.subscribe("n5", lambda rid, data: deliveries.append(rid))
        gossip.start("n0", "r2", None)
        sim.run(until=60.0)
        assert deliveries.count("r2") <= 1

    def test_invalid_params(self, gossip_setup):
        __, __, net, __ = gossip_setup
        with pytest.raises(ValueError):
            GossipProtocol(net, RngStreams(1).spawn("g"), fanout=0)
        with pytest.raises(ValueError):
            GossipProtocol(net, RngStreams(1).spawn("g"), max_rounds=0)

    def test_rounds_bounded(self, gossip_setup):
        sim, topo, net, gossip = gossip_setup
        gossip.start("n0", "r3", None)
        sim.run(until=1000.0)
        # After max_rounds everywhere, no gossip traffic remains.
        assert sim.run() == 0
