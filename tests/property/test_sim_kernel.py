"""Property tests for the simulation kernel's determinism contract.

The whole reproduction rests on one promise: same root seed, same code
path, same results — regardless of wall-clock, platform, or how many
times we run.  These properties exercise that promise at three levels:
raw event ordering, the trace summary, and a fully built agora.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.builder import build_agora
from repro.data import reset_item_ids
from repro.net import ChurnSpec, NodeHealth, reset_message_ids
from repro.query import reset_query_ids
from repro.sim import SimulationError, Simulator

delays = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.integers(min_value=-3, max_value=3),
    ),
    min_size=1,
    max_size=30,
)


class TestEventOrderDeterminism:
    @given(delays)
    @settings(max_examples=50)
    def test_same_schedule_same_firing_order(self, schedule):
        def run():
            sim = Simulator(seed=1)
            order = []
            for index, (delay, priority) in enumerate(schedule):
                sim.schedule(
                    delay,
                    (lambda i=index: order.append((sim.now, i))),
                    priority=priority,
                )
            sim.run()
            return order

        assert run() == run()

    @given(delays)
    @settings(max_examples=50)
    def test_events_fire_in_nondecreasing_time(self, schedule):
        sim = Simulator(seed=1)
        times = []
        for delay, priority in schedule:
            sim.schedule(delay, lambda: times.append(sim.now), priority=priority)
        sim.run()
        assert times == sorted(times)
        assert len(times) == len(schedule)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_churn_trace_summary_replays(self, seed):
        def run():
            sim = Simulator(seed=seed)
            NodeHealth(
                sim, [f"n{i}" for i in range(5)], sim.rng.spawn("h"),
                spec=ChurnSpec(mean_uptime=10.0, mean_downtime=5.0),
            )
            sim.run(until=200.0)
            return sim.metrics.snapshot()

        assert run() == run()


class TestSchedulingContracts:
    @given(st.floats(max_value=-1e-9, allow_nan=False))
    def test_scheduling_in_the_past_always_raises(self, delay):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)

    @given(
        st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
        st.floats(min_value=1e-6, max_value=100.0, allow_nan=False),
    )
    def test_absolute_time_before_now_always_raises(self, advance, offset):
        sim = Simulator()
        sim.schedule(advance, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(sim.now - offset, lambda: None)

    @given(st.floats(max_value=-1e-9, allow_nan=False))
    def test_negative_process_yield_always_raises(self, bad_delay):
        sim = Simulator()

        def proc():
            yield bad_delay

        with pytest.raises(SimulationError):
            sim.process(proc())
            sim.run()


def _census(agora):
    """Items indexed per source, visible or not."""
    return {
        source_id: len(source.visible_items(float("inf")))
        for source_id, source in sorted(agora.sources.items())
    }


class TestAgoraDeterminism:
    @settings(
        max_examples=3, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(min_value=0, max_value=1000))
    def test_same_seed_same_census_and_trace(self, seed):
        def build():
            reset_item_ids()
            reset_query_ids()
            reset_message_ids()
            agora = build_agora(
                seed=seed, n_sources=3, items_per_source=5,
                calibration_pairs=0,
            )
            agora.run(until=20.0)
            return _census(agora), agora.sim.metrics.snapshot()

        census_a, trace_a = build()
        census_b, trace_b = build()
        assert census_a == census_b
        assert trace_a == trace_b

    def test_different_seeds_differ_somewhere(self):
        def build(seed):
            reset_item_ids()
            reset_query_ids()
            reset_message_ids()
            agora = build_agora(
                seed=seed, n_sources=3, items_per_source=5,
                calibration_pairs=0,
            )
            return _census(agora)

        # Not a hard determinism property, but a sanity check that the
        # census actually depends on the seed (coverage draws differ).
        censuses = {tuple(sorted(build(seed).items())) for seed in range(6)}
        assert len(censuses) > 1
