"""Tests for the scriptable fault-injection harness."""

import pytest

from repro.net import NodeHealth
from repro.resilience import FaultEvent, FaultInjector, FaultScript
from repro.sim import Simulator


@pytest.fixture
def stack():
    sim = Simulator(seed=3)
    nodes = ["n1", "n2"]
    health = NodeHealth(sim, nodes, sim.rng.spawn("h"), enabled=False)
    return sim, health


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent("n1", -1.0, 1.0)
        with pytest.raises(ValueError):
            FaultEvent("n1", 0.0, 0.0)

    def test_end_time(self):
        assert FaultEvent("n1", 2.0, 3.0).end == 5.0


class TestFaultScript:
    def test_builders_append_and_chain(self):
        script = (
            FaultScript()
            .outage("n1", start=1.0, duration=2.0)
            .outage("n2", start=0.0, duration=5.0)
        )
        assert len(script) == 2
        assert [event.end for event in script.events] == [3.0, 5.0]


class TestFaultInjector:
    def test_outage_window_flips_health_down_then_up(self, stack):
        sim, health = stack
        injector = FaultInjector(sim, health)
        injector.install(FaultScript().outage("n1", start=2.0, duration=3.0))
        sim.run(until=1.0)
        assert health.is_up("n1")
        sim.run(until=2.5)
        assert not health.is_up("n1")
        assert health.is_up("n2")
        sim.run(until=6.0)
        assert health.is_up("n1")
        assert sim.trace.counter("faults.outage_transitions") == 2

    def test_overlapping_outage_windows_compose(self, stack):
        sim, health = stack
        injector = FaultInjector(sim, health)
        # Windows [1, 5) and [3, 8) overlap: the node must stay down
        # until the LAST covering window closes.
        injector.install(
            FaultScript().outage("n1", 1.0, 4.0).outage("n1", 3.0, 5.0)
        )
        sim.run(until=2.0)
        assert not health.is_up("n1")
        sim.run(until=6.0)  # first window closed, second still open
        assert not health.is_up("n1")
        sim.run(until=9.0)
        assert health.is_up("n1")
        # Exactly one down transition and one up transition.
        assert sim.trace.counter("faults.outage_transitions") == 2

    def test_unknown_node_rejected_at_install(self, stack):
        sim, health = stack
        injector = FaultInjector(sim, health)
        with pytest.raises(ValueError, match="unknown node"):
            injector.install(FaultScript().outage("ghost", 0.0, 1.0))
        assert injector.installed == []
        sim.run()  # nothing was scheduled that can blow up later

    def test_scheduling_counters(self, stack):
        sim, health = stack
        injector = FaultInjector(sim, health)
        script = (
            FaultScript()
            .outage("n1", 0.0, 1.0)
            .outage("n2", 0.0, 1.0)
            .outage("n1", 2.0, 1.0)
        )
        assert injector.install(script) == 3
        assert sim.trace.counter("faults.scheduled_outage") == 3
        assert len(injector.installed) == 3

    def test_same_script_same_seed_replays_identically(self):
        def run(seed):
            sim = Simulator(seed=seed)
            health = NodeHealth(sim, ["n1"], sim.rng.spawn("h"), enabled=False)
            FaultInjector(sim, health).install(
                FaultScript().outage("n1", 1.0, 2.0).outage("n1", 4.0, 1.0)
            )
            observed = []
            for t in (0.5, 1.5, 3.5, 4.5, 6.0):
                sim.run(until=t)
                observed.append(health.is_up("n1"))
            return observed, sim.trace.counters()

        assert run(7) == run(7)
