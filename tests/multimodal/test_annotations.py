"""Tests for the annotation service."""

from repro.data import Annotation, DomainSpec
from repro.multimodal import AnnotationService, FeedService


def _item(corpus_generator, topic="folk-jewelry", name="museum"):
    spec = DomainSpec(
        name=name, topic_prior={topic: 1.0},
        type_mix={"text": 1.0, "media": 0.0, "compound": 0.0},
        concentration=0.3,
    )
    return corpus_generator.generate(spec, 1)[0]


class TestAnnotations:
    def test_annotate_creates_annotation_item(self, corpus_generator):
        service = AnnotationService()
        target = _item(corpus_generator)
        record = service.annotate("iris", target, text="lovely filigree")
        assert isinstance(record.annotation, Annotation)
        assert record.annotation.author_id == "iris"
        assert record.annotation.target_item_id == target.item_id
        assert record.standing is None  # no feed service attached

    def test_annotation_inherits_target_latent(self, corpus_generator):
        service = AnnotationService()
        target = _item(corpus_generator)
        record = service.annotate("iris", target)
        assert (record.annotation.latent == target.latent).all()

    def test_auto_compare_registers_standing_query(
        self, corpus_generator, matching_engine
    ):
        feeds = FeedService(matching_engine)
        service = AnnotationService(feeds=feeds)
        target = _item(corpus_generator)
        record = service.annotate("iris", target)
        standing = record.standing
        assert standing is not None
        assert standing.owner_id == "iris"
        assert standing.comparison_items == [target]

    def test_annotation_triggers_feed_hits(self, corpus_generator, matching_engine):
        feeds = FeedService(matching_engine)
        service = AnnotationService(feeds=feeds)
        target = _item(corpus_generator)
        service.annotate("iris", target, comparison_threshold=0.3)
        similar = _item(corpus_generator, name="auction")
        feeds.on_new_item("auction-src", similar)
        assert len(feeds.drain("iris")) == 1
