"""Tests for the network message router."""

import pytest

from repro.net import Message, Network, NodeHealth, random_topology
from repro.sim import Simulator


@pytest.fixture
def setup():
    sim = Simulator(seed=5)
    streams = sim.rng.spawn("net")
    topo = random_topology(8, streams)
    net = Network(sim, topo, streams, jitter_fraction=0.0)
    return sim, topo, net


class TestMessages:
    def test_message_size_positive(self):
        with pytest.raises(ValueError):
            Message("a", "b", "query", size=0.0)

    def test_reply_addresses_sender(self):
        msg = Message("a", "b", "query")
        reply = msg.reply("answer")
        assert reply.sender == "b"
        assert reply.recipient == "a"
        assert reply.reply_to == msg.message_id


class TestDelivery:
    def test_message_delivered(self, setup):
        sim, topo, net = setup
        received = []
        net.register("n3", received.append)
        net.send(Message("n0", "n3", "query", payload="hello"))
        sim.run()
        assert len(received) == 1
        assert received[0].payload == "hello"

    def test_delivery_takes_time(self, setup):
        sim, topo, net = setup
        times = []
        net.register("n3", lambda m: times.append(sim.now))
        net.send(Message("n0", "n3", "query"))
        sim.run()
        assert times[0] > 0

    def test_self_message(self, setup):
        sim, topo, net = setup
        received = []
        net.register("n0", received.append)
        net.send(Message("n0", "n0", "note"))
        sim.run()
        assert len(received) == 1

    def test_unregistered_recipient_counted(self, setup):
        sim, topo, net = setup
        net.send(Message("n0", "n4", "query"))
        sim.run()
        assert sim.trace.counter("net.messages_unhandled") == 1

    def test_counters(self, setup):
        sim, topo, net = setup
        net.register("n1", lambda m: None)
        net.send(Message("n0", "n1", "query"))
        sim.run()
        assert sim.trace.counter("net.messages_sent") == 1
        assert sim.trace.counter("net.messages_delivered") == 1

    def test_register_unknown_node(self, setup):
        __, __, net = setup
        with pytest.raises(KeyError):
            net.register("n99", lambda m: None)

    def test_jitter_bounds(self):
        sim = Simulator(seed=5)
        streams = sim.rng.spawn("net")
        topo = random_topology(6, streams)
        net = Network(sim, topo, streams, jitter_fraction=0.5)
        msg = Message("n0", "n3", "q")
        base_net = Network(sim, topo, streams.spawn("nojit"), jitter_fraction=0.0)
        base = base_net.delivery_delay(msg)
        for __ in range(20):
            delay = net.delivery_delay(msg)
            assert 0.5 * base <= delay <= 1.5 * base

    def test_invalid_jitter(self, setup):
        sim, topo, __ = setup
        with pytest.raises(ValueError):
            Network(sim, topo, sim.rng.spawn("x"), jitter_fraction=1.0)


class TestDrops:
    def test_down_recipient_drops(self, setup):
        sim, topo, net = setup
        health = NodeHealth(sim, topo.nodes, sim.rng.spawn("health"), enabled=False)
        net.health = health
        received = []
        net.register("n3", received.append)
        health.set_state("n3", False)
        ok = net.send(Message("n0", "n3", "query"))
        sim.run()
        assert ok is False
        assert received == []
        assert sim.trace.counter("net.messages_dropped") == 1

    def test_drop_callback(self, setup):
        sim, topo, net = setup
        health = NodeHealth(sim, topo.nodes, sim.rng.spawn("health"), enabled=False)
        net.health = health
        drops = []
        net.on_drop = lambda msg, node: drops.append(node)
        health.set_state("n3", False)
        net.send(Message("n0", "n3", "query"))
        sim.run()
        assert drops == ["n3"]

    def test_recipient_goes_down_in_flight(self, setup):
        sim, topo, net = setup
        health = NodeHealth(sim, topo.nodes, sim.rng.spawn("health"), enabled=False)
        net.health = health
        received = []
        net.register("n3", received.append)
        net.send(Message("n0", "n3", "query"))
        health.set_state("n3", False)  # goes down before delivery event fires
        sim.run()
        assert received == []
