"""Tests for salient-part detection and auto-annotation."""

import numpy as np
import pytest

from repro.data import CompoundObject, DomainSpec, combined_latent
from repro.multimodal import AnnotationService, FeedService
from repro.uncertainty import ConceptLifter, concept_peakedness, salient_parts


class TestPeakedness:
    def test_one_hot_is_one(self):
        assert concept_peakedness(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(
            1.0, abs=1e-6,
        )

    def test_uniform_is_zero(self):
        assert concept_peakedness(np.full(8, 0.125)) == pytest.approx(0.0, abs=1e-6)

    def test_monotone_in_concentration(self):
        peaked = np.array([0.7, 0.1, 0.1, 0.1])
        smeared = np.array([0.4, 0.2, 0.2, 0.2])
        assert concept_peakedness(peaked) > concept_peakedness(smeared)

    def test_degenerate_inputs(self):
        assert concept_peakedness(np.zeros(4)) == 0.0
        assert concept_peakedness(np.array([1.0])) == 0.0


def _text_items(corpus_generator, topic, count, name):
    spec = DomainSpec(
        name=name, topic_prior={topic: 1.0},
        type_mix={"text": 1.0, "media": 0.0, "compound": 0.0},
        concentration=0.3,
    )
    return corpus_generator.generate(spec, count)


@pytest.fixture
def lifter(vocabulary, corpus_generator, streams):
    from repro.data import FeatureExtractor

    extractor = FeatureExtractor(16, streams.spawn("sal-fx"))
    return ConceptLifter(vocabulary, extractor)


def _compound(corpus_generator, topic_space, sharp_topic, parts_weights):
    """A compound with one sharp part and several diffuse fillers."""
    sharp = _text_items(corpus_generator, sharp_topic, 1, "sharp")[0]
    diffuse_spec = DomainSpec(
        name="diffuse",
        topic_prior={name: 1.0 / topic_space.n_topics for name in topic_space.names},
        type_mix={"text": 1.0, "media": 0.0, "compound": 0.0},
        concentration=10.0,  # very smeared
    )
    fillers = corpus_generator.generate(diffuse_spec, len(parts_weights) - 1)
    parts = [(sharp, parts_weights[0])] + [
        (filler, weight) for filler, weight in zip(fillers, parts_weights[1:])
    ]
    return CompoundObject(
        item_id="compound-1", domain="magazine",
        latent=combined_latent(parts), parts=parts,
    ), sharp


class TestSalientParts:
    def test_sharp_part_ranks_first(self, corpus_generator, topic_space, lifter):
        compound, sharp = _compound(
            corpus_generator, topic_space, "folk-jewelry", [1.0, 1.0, 1.0],
        )
        salient = salient_parts(compound, lifter, k=1)
        assert salient[0].part.item_id == sharp.item_id

    def test_weight_scales_salience(self, corpus_generator, topic_space, lifter):
        compound, sharp = _compound(
            corpus_generator, topic_space, "folk-jewelry", [0.01, 5.0, 5.0],
        )
        # The sharp part is nearly weightless; a heavy filler can win.
        salient = salient_parts(compound, lifter, k=3)
        assert salient[0].salience >= salient[-1].salience

    def test_k_bounds_results(self, corpus_generator, topic_space, lifter):
        compound, __ = _compound(
            corpus_generator, topic_space, "folk-jewelry", [1.0, 1.0, 1.0],
        )
        assert len(salient_parts(compound, lifter, k=2)) == 2

    def test_invalid_k(self, corpus_generator, topic_space, lifter):
        compound, __ = _compound(
            corpus_generator, topic_space, "folk-jewelry", [1.0, 1.0],
        )
        with pytest.raises(ValueError):
            salient_parts(compound, lifter, k=0)


class TestAutoAnnotate:
    def test_auto_annotation_spawns_comparisons(
        self, corpus_generator, topic_space, matching_engine, lifter,
    ):
        feeds = FeedService(matching_engine)
        service = AnnotationService(feeds=feeds)
        compound, sharp = _compound(
            corpus_generator, topic_space, "folk-jewelry", [1.0, 1.0, 1.0],
        )
        records = service.auto_annotate("iris", compound, lifter, k=2)
        assert len(records) == 2
        assert all(record.standing is not None for record in records)
        assert all("[auto]" in record.annotation.text for record in records)
        # The sharp part drives one of the standing comparisons.
        compared = {
            item.item_id
            for record in records
            for item in record.standing.comparison_items
        }
        assert sharp.item_id in compared
