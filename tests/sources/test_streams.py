"""Tests for source update streams."""

import pytest

from repro.data import DomainSpec
from repro.sim import Simulator
from repro.sources import UpdateStream

from tests.conftest import make_source


@pytest.fixture
def stream_setup(corpus_generator, matching_engine, streams):
    sim = Simulator(seed=4)
    spec = DomainSpec(
        name="magazine",
        topic_prior={"fashion-trends": 1.0},
        update_rate=0.5,
    )
    source = make_source(
        "mag1", corpus_generator, matching_engine, streams,
        domain_spec=spec, n_items=0,
    )
    stream = UpdateStream(
        sim, source, corpus_generator, spec, streams.spawn("upd")
    )
    return sim, source, stream


class TestUpdateStream:
    def test_publishes_items_over_time(self, stream_setup):
        sim, source, stream = stream_setup
        stream.start()
        sim.run(until=100.0)
        assert stream.published > 10
        assert source.collection_size == stream.published

    def test_rate_controls_volume(self, corpus_generator, matching_engine, streams):
        counts = {}
        for multiplier in (1.0, 4.0):
            sim = Simulator(seed=4)
            spec = DomainSpec(
                name="magazine", topic_prior={"fashion-trends": 1.0}, update_rate=0.2
            )
            source = make_source(
                f"mag-{multiplier}", corpus_generator, matching_engine, streams,
                domain_spec=spec, n_items=0,
            )
            stream = UpdateStream(
                sim, source, corpus_generator, spec,
                streams.spawn(f"upd{multiplier}"), rate_multiplier=multiplier,
            )
            stream.start()
            sim.run(until=200.0)
            counts[multiplier] = stream.published
        assert counts[4.0] > 2 * counts[1.0]

    def test_subscribers_notified(self, stream_setup):
        sim, source, stream = stream_setup
        events = []
        stream.subscribe(lambda source_id, item: events.append((source_id, item)))
        stream.start()
        sim.run(until=50.0)
        assert len(events) == stream.published
        assert all(source_id == "mag1" for source_id, __ in events)

    def test_items_carry_publication_time(self, stream_setup):
        sim, source, stream = stream_setup
        items = []
        stream.subscribe(lambda __, item: items.append(item))
        stream.start()
        sim.run(until=50.0)
        assert all(0 < item.created_at <= 50.0 for item in items)

    def test_stop_halts_publication(self, stream_setup):
        sim, source, stream = stream_setup
        stream.start()
        sim.run(until=20.0)
        count = stream.published
        stream.stop()
        sim.run(until=100.0)
        assert stream.published == count

    def test_start_idempotent(self, stream_setup):
        sim, source, stream = stream_setup
        stream.start()
        stream.start()
        sim.run(until=20.0)
        # Double start must not double the rate: events come from one chain.
        assert sim.pending <= 1

    def test_invalid_multiplier(self, stream_setup, corpus_generator, streams):
        sim, source, stream = stream_setup
        with pytest.raises(ValueError):
            UpdateStream(
                sim, source, corpus_generator, stream.spec,
                streams.spawn("bad"), rate_multiplier=0.0,
            )

    @pytest.mark.parametrize(
        "multiplier", [float("inf"), float("-inf"), float("nan")]
    )
    def test_non_finite_multiplier_rejected(
        self, stream_setup, corpus_generator, streams, multiplier
    ):
        sim, source, stream = stream_setup
        with pytest.raises(ValueError, match="rate_multiplier"):
            UpdateStream(
                sim, source, corpus_generator, stream.spec,
                streams.spawn("bad"), rate_multiplier=multiplier,
            )

    def test_overflowing_rate_rejected(self, stream_setup, corpus_generator, streams):
        sim, source, __ = stream_setup
        spec = DomainSpec(
            name="magazine", topic_prior={"fashion-trends": 1.0}, update_rate=10.0
        )
        with pytest.raises(ValueError, match="overflows"):
            UpdateStream(
                sim, source, corpus_generator, spec,
                streams.spawn("bad"), rate_multiplier=1e308,
            )
