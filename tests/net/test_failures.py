"""Tests for churn and decline models."""

import pytest

from repro.net import ChurnSpec, LoadModel, LoadSpec, NodeHealth
from repro.sim import RngStreams, Simulator


class TestNodeHealth:
    def test_nodes_start_up(self):
        sim = Simulator()
        health = NodeHealth(sim, ["a", "b"], sim.rng.spawn("h"), enabled=False)
        assert health.is_up("a")
        assert health.is_up("b")

    def test_set_state(self):
        sim = Simulator()
        health = NodeHealth(sim, ["a", "b"], sim.rng.spawn("h"), enabled=False)
        health.set_state("a", False)
        assert not health.is_up("a")
        assert health.is_up("b")

    def test_unknown_node(self):
        sim = Simulator()
        health = NodeHealth(sim, ["a"], sim.rng.spawn("h"), enabled=False)
        with pytest.raises(KeyError):
            health.set_state("z", False)
        assert health.is_up("z") is False

    def test_disabled_churn_schedules_nothing(self):
        sim = Simulator(seed=9)
        NodeHealth(
            sim,
            [f"n{i}" for i in range(8)],
            sim.rng.spawn("h"),
            spec=ChurnSpec(mean_uptime=1.0, mean_downtime=1.0),
            enabled=False,
        )
        assert sim.run(until=100.0) == 0
        assert sim.trace.counter("net.churn_transitions") == 0

    def test_churn_produces_transitions(self):
        sim = Simulator(seed=2)
        spec = ChurnSpec(mean_uptime=10.0, mean_downtime=5.0)
        NodeHealth(sim, [f"n{i}" for i in range(10)], sim.rng.spawn("h"), spec=spec)
        sim.run(until=100.0)
        assert sim.trace.counter("net.churn_transitions") > 0

    def test_invalid_churn_spec(self):
        with pytest.raises(ValueError):
            ChurnSpec(mean_uptime=0.0)


class TestLoadModel:
    def _model(self):
        return LoadModel(RngStreams(1).spawn("l"))

    def test_idle_node_rarely_declines(self):
        model = self._model()
        declines = sum(model.declines("a") for __ in range(200))
        assert declines < 20

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            LoadSpec(decline_sharpness=-1.0)
