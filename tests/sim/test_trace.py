"""Tests for the trace recorder."""

from repro.obs import MetricsRegistry
from repro.sim import TraceRecorder


class TestCounters:
    def test_count_and_read(self):
        trace = TraceRecorder()
        trace.count("messages")
        trace.count("messages", 2.0)
        assert trace.counter("messages") == 3.0

    def test_unknown_counter_is_zero(self):
        assert TraceRecorder().counter("nothing") == 0.0

    def test_counters_snapshot_is_copy(self):
        trace = TraceRecorder()
        trace.count("x")
        snapshot = trace.counters()
        snapshot["x"] = 99
        assert trace.counter("x") == 1.0


class TestRegistryBacking:
    def test_counts_land_in_shared_registry(self):
        registry = MetricsRegistry()
        trace = TraceRecorder(metrics=registry)
        trace.count("sim.events", 3.0)
        trace.observe("lat", 0.5)
        assert registry.counter_value("sim.events") == 3.0
        assert registry.histogram_or_none("lat").count == 1

    def test_private_registry_is_exposed(self):
        trace = TraceRecorder()
        trace.count("x")
        assert trace.metrics.counter_value("x") == 1.0
