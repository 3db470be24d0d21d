"""Tests for source update streams."""

import pytest

from repro.data import DomainSpec
from repro.sim import RngStreams, Simulator
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
        assert len(source.visible_items(sim.now)) == stream.published

    def test_rate_controls_volume(self, corpus_generator, matching_engine, streams):
        counts = {}
        for rate in (0.2, 0.8):
            sim = Simulator(seed=4)
            spec = DomainSpec(
                name="magazine", topic_prior={"fashion-trends": 1.0}, update_rate=rate
            )
            source = make_source(
                f"mag-{rate}", corpus_generator, matching_engine, streams,
                domain_spec=spec, n_items=0,
            )
            stream = UpdateStream(
                sim, source, corpus_generator, spec, streams.spawn(f"upd{rate}"),
            )
            stream.start()
            sim.run(until=200.0)
            counts[rate] = stream.published
        assert counts[0.8] > 2 * counts[0.2]

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

    def test_start_idempotent(self, corpus_generator, matching_engine, streams):
        published = {}
        for starts in (1, 2):
            sim = Simulator(seed=4)
            spec = DomainSpec(
                name="magazine", topic_prior={"fashion-trends": 1.0}, update_rate=0.5
            )
            source = make_source(
                "mag1", corpus_generator, matching_engine, streams,
                domain_spec=spec, n_items=0,
            )
            stream = UpdateStream(
                sim, source, corpus_generator, spec, RngStreams(seed=4).spawn("upd")
            )
            for __ in range(starts):
                stream.start()
            sim.run(until=20.0)
            published[starts] = stream.published
        # Double start must not double the rate: events come from one chain.
        assert published[2] == published[1] > 0
