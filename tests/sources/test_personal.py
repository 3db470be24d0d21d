"""Tests for personal information bases."""

import pytest

from repro.data import Annotation, DomainSpec, make_item_id
from repro.sources import PERSONAL_DOMAIN, PersonalInformationBase

from tests.conftest import make_topic_query


@pytest.fixture
def base(matching_engine, streams):
    return PersonalInformationBase("iris", matching_engine, streams.spawn("pib"))


def _items(corpus_generator, count=5, topic="folk-jewelry"):
    spec = DomainSpec(
        name="museum", topic_prior={topic: 1.0},
        type_mix={"text": 1.0, "media": 0.0, "compound": 0.0},
        concentration=0.3,
    )
    return corpus_generator.generate(spec, count)


class TestSaving:
    def test_save_redomains_copy(self, base, corpus_generator):
        item = _items(corpus_generator, 1)[0]
        base.save(item)
        stored = base.visible_items(0.0)[0]
        assert stored.domain == PERSONAL_DOMAIN
        assert stored.metadata["original_domain"] == "museum"
        assert item.domain == "museum"  # original untouched

    def test_save_all(self, base, corpus_generator):
        base.save_all(_items(corpus_generator, 4))
        assert len(base.visible_items(float("inf"))) == 4

    def test_saved_items_immediately_visible(self, base, corpus_generator):
        base.save(_items(corpus_generator, 1)[0], now=10.0)
        assert len(base.visible_items(10.0)) == 1

    def test_annotations_listed(self, base, corpus_generator, topic_space):
        item = _items(corpus_generator, 1)[0]
        base.save(item)
        note = Annotation(
            item_id=make_item_id("annotation"), domain=PERSONAL_DOMAIN,
            latent=item.latent, author_id="iris", target_item_id=item.item_id,
            text="check the clasp",
        )
        base.save(note)
        assert len(base.annotations()) == 1
        assert base.annotations()[0].text == "check the clasp"


class TestAccessControl:
    def test_owner_always_has_access(self, base):
        assert base.has_access("iris")
        ok, __ = base.accepts("iris", now=0.0)
        assert ok

    def test_strangers_denied(self, base):
        ok, reason = base.accepts("stranger", now=0.0)
        assert not ok
        assert reason == "private"

    def test_share_grants_access(self, base):
        assert not base.accepts("jason", now=0.0)[0]
        base.share_with("jason")
        assert base.accepts("jason", now=0.0)[0]
        assert not base.accepts("stranger", now=0.0)[0]


class TestQuerying:
    def test_owner_can_query(self, base, corpus_generator, topic_space, vocabulary):
        base.save_all(_items(corpus_generator, 6))
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=3)
        answer = base.answer(query.restricted_to(PERSONAL_DOMAIN), now=0.0,
                             consumer_id="iris")
        assert not answer.declined
        assert len(answer.matches) == 3

    def test_shared_user_can_query(self, base, corpus_generator, topic_space, vocabulary):
        base.save_all(_items(corpus_generator, 3))
        base.share_with("jason")
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=3)
        answer = base.answer(query.restricted_to(PERSONAL_DOMAIN), now=0.0,
                             consumer_id="jason")
        assert not answer.declined

    def test_base_with_annotations_answers(self, base, corpus_generator, topic_space,
                                           vocabulary):
        items = _items(corpus_generator, 3)
        base.save_all(items)
        for item in items:
            base.save(Annotation(
                item_id=make_item_id("annotation"), domain=PERSONAL_DOMAIN,
                latent=item.latent, author_id="iris", target_item_id=item.item_id,
                text="compare with the catalog",
            ))
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=10)
        answer = base.answer(query.restricted_to(PERSONAL_DOMAIN), now=0.0,
                             consumer_id="iris")
        assert not answer.declined
        assert len(answer.matches) == 6

    def test_stranger_query_declined(self, base, corpus_generator, topic_space, vocabulary):
        base.save_all(_items(corpus_generator, 3))
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry", k=3)
        answer = base.answer(query.restricted_to(PERSONAL_DOMAIN), now=0.0,
                             consumer_id="stranger")
        assert answer.declined
        assert answer.decline_reason == "private"

    def test_perfect_quality(self, base):
        assert base.quality.coverage == 1.0
        assert base.quality.error_rate == 0.0
        assert base.quality.overpromise == 0.0
