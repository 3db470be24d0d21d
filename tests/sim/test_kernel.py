"""Tests for the discrete-event simulator."""

import pytest

from repro.sim import SimulationError, Simulator


class TestScheduling:
    def test_schedule_relative(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_schedule_absolute(self):
        sim = Simulator()
        fired = []
        sim.at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_past_absolute_time_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(2.0, lambda: None)

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def outer():
            times.append(sim.now)
            sim.schedule(2.0, lambda: times.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert times == [1.0, 3.0]


class TestRunLimits:
    def test_run_until_advances_clock(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        processed = sim.run(until=5.0)
        assert processed == 0
        assert sim.now == 5.0
        assert sim.run() == 1

    def test_run_until_includes_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run(until=5.0)
        assert fired == [1]

    def test_max_events(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.run() == 2

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_processed_accumulates(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.processed == 2


class TestProcesses:
    def test_generator_process(self):
        sim = Simulator()
        times = []

        def worker():
            for __ in range(3):
                times.append(sim.now)
                yield 2.0

        sim.process(worker())
        sim.run()
        assert times == [0.0, 2.0, 4.0]

    def test_process_negative_delay_raises(self):
        sim = Simulator()

        def bad():
            yield -1.0

        with pytest.raises(SimulationError):
            sim.process(bad())

    def test_rng_is_seeded_from_constructor(self):
        a = Simulator(seed=9).rng.stream("x").random(4)
        b = Simulator(seed=9).rng.stream("x").random(4)
        assert list(a) == list(b)


class TestFlightHook:
    def test_records_every_dispatched_event(self):
        from repro.obs.flight import FlightRecorder

        flight = FlightRecorder()
        sim = Simulator(seed=3, flight=flight)
        sim.schedule(1.0, lambda: None, tag="alpha")
        sim.schedule(2.0, lambda: None, tag="beta")
        sim.run()
        assert flight.record_count == 2

    def test_record_draws_reflect_callback_consumption(self):
        from repro.obs.flight import FlightRecorder

        flight = FlightRecorder()
        sim = Simulator(seed=3, flight=flight)
        sim.rng.stream("warmup").random(8)  # pre-run draws must not count
        sim.schedule(1.0, lambda: sim.rng.stream("x").random(4), tag="draw")
        sim.run(until=5.0)
        footer = flight.footer_dict()
        # The stream table only accounts draws made during the run.
        assert footer["streams"] == {"x": 1}

    def test_same_seed_runs_record_identical_digests(self):
        from repro.obs.flight import FlightRecorder

        digests = []
        for _ in range(2):
            flight = FlightRecorder()
            sim = Simulator(seed=9, flight=flight)

            def worker(sim=sim):
                for __ in range(5):
                    sim.rng.stream("w").random()
                    yield 1.0

            sim.process(worker(), tag="work")
            sim.run()
            digests.append(flight.digest)
        assert digests[0] == digests[1]

    def test_no_flight_attribute_left_none(self):
        sim = Simulator(seed=1)
        assert sim.flight is None
