"""Tests for standing queries and the feed service."""

import pytest

from repro.data import DomainSpec
from repro.multimodal import FeedService, StandingQuery
from repro.sim import Simulator
from repro.sources import UpdateStream

from tests.conftest import make_source, make_topic_query


def _jewelry_item(corpus_generator, name="probe"):
    spec = DomainSpec(
        name=name, topic_prior={"folk-jewelry": 1.0},
        type_mix={"text": 1.0, "media": 0.0, "compound": 0.0},
        concentration=0.3,
    )
    return corpus_generator.generate(spec, 1)[0]


class TestStandingQuery:
    def test_needs_comparison_items(self):
        with pytest.raises(ValueError):
            StandingQuery(owner_id="iris", comparison_items=[])

    def test_invalid_threshold(self, corpus_generator):
        item = _jewelry_item(corpus_generator)
        with pytest.raises(ValueError):
            StandingQuery(owner_id="iris", comparison_items=[item], threshold=2.0)

    def test_from_query(self, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry",
                                 issuer_id="iris")
        standing = StandingQuery.from_query(query)
        assert standing.owner_id == "iris"
        assert len(standing.comparison_items) == 1

    def test_domain_targeting(self, corpus_generator):
        item = _jewelry_item(corpus_generator)
        standing = StandingQuery(owner_id="iris", comparison_items=[item],
                                 domains=("auction",))
        assert standing.targets_domain("auction")
        assert not standing.targets_domain("museum")


class TestFeedService:
    def test_matching_item_delivered(self, corpus_generator, matching_engine):
        service = FeedService(matching_engine)
        probe = _jewelry_item(corpus_generator)
        service.register(StandingQuery(
            owner_id="iris", comparison_items=[probe], threshold=0.3,
        ))
        similar = _jewelry_item(corpus_generator, name="incoming")
        service.on_new_item("src1", similar)
        inbox = service.drain("iris")
        assert len(inbox) == 1
        assert inbox[0].match.source_id == "src1"

    def test_non_matching_item_filtered(self, corpus_generator, matching_engine):
        service = FeedService(matching_engine)
        probe = _jewelry_item(corpus_generator)
        service.register(StandingQuery(
            owner_id="iris", comparison_items=[probe], threshold=0.99,
        ))
        off_topic_spec = DomainSpec(
            name="tourismland", topic_prior={"tourism": 1.0},
            type_mix={"text": 1.0, "media": 0.0, "compound": 0.0},
        )
        item = corpus_generator.generate(off_topic_spec, 1)[0]
        service.on_new_item("src1", item)
        assert service.drain("iris") == []
        assert service.items_screened == 1

    def test_drain_clears_inbox(self, corpus_generator, matching_engine):
        service = FeedService(matching_engine)
        probe = _jewelry_item(corpus_generator)
        service.register(StandingQuery(
            owner_id="iris", comparison_items=[probe], threshold=0.0,
        ))
        service.on_new_item("src1", _jewelry_item(corpus_generator, "y"))
        hits = service.drain("iris")
        assert len(hits) == 1
        assert service.drain("iris") == []

    def test_live_query_modification(self, corpus_generator, matching_engine, topic_space):
        """Adding a comparison object mid-stream widens what matches."""
        service = FeedService(matching_engine)
        probe = _jewelry_item(corpus_generator)
        standing = StandingQuery(owner_id="iris", comparison_items=[probe],
                                 threshold=0.55)
        service.register(standing)
        dance_spec = DomainSpec(
            name="dancefloor", topic_prior={"dance-forms": 1.0},
            type_mix={"text": 1.0, "media": 0.0, "compound": 0.0},
            concentration=0.3,
        )
        dance_item = corpus_generator.generate(dance_spec, 1)[0]
        service.on_new_item("src1", dance_item)
        service.drain("iris")
        # Iris adds a dance item to the running comparison.
        standing.comparison_items.append(corpus_generator.generate(dance_spec, 1)[0])
        service.on_new_item("src1", corpus_generator.generate(dance_spec, 1)[0])
        assert len(service.drain("iris")) > 0

    def test_attach_to_stream(self, corpus_generator, matching_engine, streams):
        sim = Simulator(seed=9)
        spec = DomainSpec(
            name="auction", topic_prior={"folk-jewelry": 1.0},
            type_mix={"text": 1.0, "media": 0.0, "compound": 0.0},
            update_rate=0.5, concentration=0.3,
        )
        source = make_source("auc", corpus_generator, matching_engine, streams,
                             domain_spec=spec, n_items=0)
        stream = UpdateStream(sim, source, corpus_generator, spec, streams.spawn("u"))
        service = FeedService(matching_engine, now_fn=lambda: sim.now)
        service.attach(stream)
        probe = _jewelry_item(corpus_generator)
        service.register(StandingQuery(
            owner_id="iris", comparison_items=[probe], threshold=0.3,
        ))
        stream.start()
        sim.run(until=60.0)
        assert service.items_screened == stream.published
        hits = service.drain("iris")
        assert len(hits) > 0
        assert all(hit.delivered_at > 0 for hit in hits)
