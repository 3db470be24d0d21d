"""Tests for the synthetic corpus generator."""

import numpy as np
import pytest

from repro.data import (
    CompoundObject,
    DomainSpec,
    MediaObject,
    TextDocument,
    iris_domains,
)


class TestDomainSpec:
    def test_type_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DomainSpec(
                name="bad", topic_prior={"folk-jewelry": 1.0},
                type_mix={"text": 0.5, "media": 0.2, "compound": 0.2},
            )

    @pytest.mark.parametrize("type_mix", [
        {"text": 1.5, "media": -0.5, "compound": 0.0},
        {"text": float("nan"), "media": 0.5, "compound": 0.5},
    ])
    def test_type_mix_weight_must_be_finite_and_nonnegative(self, type_mix):
        with pytest.raises(ValueError, match="type_mix"):
            DomainSpec(name="bad", topic_prior={"folk-jewelry": 1.0}, type_mix=type_mix)

    def test_empty_topic_prior_rejected(self):
        with pytest.raises(ValueError, match="empty topic_prior"):
            DomainSpec(name="bad", topic_prior={})

    def test_zero_topic_prior_rejected(self):
        with pytest.raises(ValueError, match="sum to 0"):
            DomainSpec(name="bad", topic_prior={"folk-jewelry": 0.0, "tourism": 0.0})

    def test_negative_topic_prior_weight_rejected(self):
        with pytest.raises(ValueError, match="topic_prior"):
            DomainSpec(name="bad", topic_prior={"folk-jewelry": 1.0, "tourism": -0.5})

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_topic_prior_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="topic_prior"):
            DomainSpec(name="bad", topic_prior={"folk-jewelry": weight})

    @pytest.mark.parametrize("concentration", [0.0, -1.0, float("nan"), float("inf")])
    def test_concentration_must_be_positive_and_finite(self, concentration):
        with pytest.raises(ValueError, match="concentration"):
            DomainSpec(
                name="bad", topic_prior={"folk-jewelry": 1.0},
                concentration=concentration,
            )

    def test_negative_update_rate_rejected(self):
        with pytest.raises(ValueError, match="update_rate"):
            DomainSpec(name="bad", topic_prior={"folk-jewelry": 1.0}, update_rate=-0.1)

    def test_zero_update_rate_allowed(self):
        spec = DomainSpec(name="still", topic_prior={"folk-jewelry": 1.0}, update_rate=0.0)
        assert spec.update_rate == 0.0

    def test_unknown_type_mix_key_rejected(self):
        with pytest.raises(ValueError, match="image"):
            DomainSpec(
                name="bad", topic_prior={"folk-jewelry": 1.0},
                type_mix={"image": 1.0},
            )

    def test_iris_domains_complete(self):
        names = {spec.name for spec in iris_domains()}
        assert names == {"museum", "auction", "magazine", "thesis", "cultural-org"}


class TestGeneration:
    def test_generate_count(self, corpus_generator):
        spec = iris_domains()[0]
        items = corpus_generator.generate(spec, 20)
        assert len(items) == 20

    def test_items_carry_domain(self, corpus_generator):
        spec = iris_domains()[1]
        items = corpus_generator.generate(spec, 10)
        assert all(item.domain == "auction" for item in items)

    def test_latents_are_simplex_points(self, corpus_generator, topic_space):
        spec = iris_domains()[0]
        for item in corpus_generator.generate(spec, 10):
            assert item.latent.shape == (topic_space.n_topics,)
            assert item.latent.sum() == pytest.approx(1.0)

    def test_type_mix_respected_roughly(self, corpus_generator):
        spec = DomainSpec(
            name="museum", topic_prior={"folk-jewelry": 1.0},
            type_mix={"text": 1.0, "media": 0.0, "compound": 0.0},
        )
        items = corpus_generator.generate(spec, 15)
        assert all(isinstance(item, TextDocument) for item in items)

    def test_domain_prior_shapes_latents(self, corpus_generator, topic_space):
        spec = iris_domains()[3]  # thesis: academic-theses-dominant
        items = corpus_generator.generate(spec, 60)
        mean_latent = np.mean([item.latent for item in items], axis=0)
        thesis_index = topic_space.names.index("academic-theses")
        assert np.argmax(mean_latent) == thesis_index

    def test_unknown_topic_in_prior(self, corpus_generator):
        spec = DomainSpec(name="x", topic_prior={"no-such-topic": 1.0})
        with pytest.raises(KeyError):
            corpus_generator.generate(spec, 1)
        with pytest.raises(KeyError):  # a failed derivation is not cached
            corpus_generator.generate(spec, 1)

    def test_prior_follows_the_spec_contents(self, corpus_generator, topic_space):
        # Per-spec derivations are keyed by contents, so editing the
        # spec's mapping in place takes effect for the next items.
        prior = {"folk-jewelry": 1.0}
        spec = DomainSpec(
            name="x", topic_prior=prior, concentration=5.0,
            type_mix={"text": 0.0, "media": 1.0, "compound": 0.0},
        )
        first = corpus_generator.generate(spec, 30)
        del prior["folk-jewelry"]
        prior["tourism"] = 1.0
        second = corpus_generator.generate(spec, 30)
        for items, topic in ((first, "folk-jewelry"), (second, "tourism")):
            mean_latent = np.mean([item.latent for item in items], axis=0)
            assert np.argmax(mean_latent) == topic_space.names.index(topic)

    def test_generate_collection(self, corpus_generator):
        collection = corpus_generator.generate_collection(iris_domains()[:2], 5)
        assert set(collection) == {"museum", "auction"}
        assert all(len(v) == 5 for v in collection.values())

    def test_created_at_propagates(self, corpus_generator):
        spec = iris_domains()[0]
        items = corpus_generator.generate(spec, 5, created_at=42.0)
        assert all(item.created_at == 42.0 for item in items)


class TestMediaRendering:
    def test_features_normalised(self, corpus_generator):
        spec = DomainSpec(
            name="museum", topic_prior={"folk-jewelry": 1.0},
            type_mix={"text": 0.0, "media": 1.0, "compound": 0.0},
        )
        items = corpus_generator.generate(spec, 5)
        for item in items:
            assert isinstance(item, MediaObject)
            assert np.linalg.norm(item.true_features) == pytest.approx(1.0)

    def test_similar_latents_give_similar_features(self, corpus_generator, topic_space):
        rng = np.random.default_rng(0)
        latent_a = topic_space.basis(topic_space.names[0], weight=0.95)
        latent_b = topic_space.basis(topic_space.names[5], weight=0.95)
        fa1 = corpus_generator.render_features(latent_a, rng)
        fa2 = corpus_generator.render_features(latent_a, rng)
        fb = corpus_generator.render_features(latent_b, rng)
        assert np.dot(fa1, fa2) > np.dot(fa1, fb)


class TestCompound:
    def test_compound_parts_nonempty(self, corpus_generator):
        spec = DomainSpec(
            name="auction", topic_prior={"auction-market": 1.0},
            type_mix={"text": 0.0, "media": 0.0, "compound": 1.0},
        )
        items = corpus_generator.generate(spec, 5)
        for item in items:
            assert isinstance(item, CompoundObject)
            assert len(item.parts) >= 2

    def test_compound_latent_is_part_average(self, corpus_generator):
        spec = DomainSpec(
            name="auction", topic_prior={"auction-market": 1.0},
            type_mix={"text": 0.0, "media": 0.0, "compound": 1.0},
        )
        item = corpus_generator.generate(spec, 1)[0]
        total = sum(w for __, w in item.parts)
        expected = sum(part.latent * w for part, w in item.parts) / total
        np.testing.assert_allclose(item.latent, expected)

    def test_auction_layout(self, corpus_generator):
        spec = DomainSpec(
            name="auction", topic_prior={"auction-market": 1.0},
            type_mix={"text": 0.0, "media": 0.0, "compound": 1.0},
        )
        item = corpus_generator.generate(spec, 1)[0]
        assert item.layout == "catalog"
