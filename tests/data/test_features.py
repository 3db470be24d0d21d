"""Tests for observable feature extraction."""

import numpy as np
import pytest

from repro.data import FeatureExtractor, FeatureSetSpec, MediaObject
from repro.sim import RngStreams


@pytest.fixture
def extractor():
    return FeatureExtractor(true_dimensions=16, streams=RngStreams(7).spawn("feat"))


def _media(item_id, features):
    return MediaObject(
        item_id=item_id, domain="museum", latent=np.array([1.0]),
        true_features=np.asarray(features, dtype=float),
    )


class TestSpecs:
    def test_invalid_fidelity(self):
        with pytest.raises(ValueError):
            FeatureSetSpec("bad", 4, fidelity=1.5, noise_scale=0.1)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            FeatureSetSpec("bad", 0, fidelity=0.5, noise_scale=0.1)

    def test_negative_noise(self):
        with pytest.raises(ValueError):
            FeatureSetSpec("bad", 4, fidelity=0.5, noise_scale=-0.1)

    def test_default_sets_present(self, extractor):
        names = sorted(extractor.specs)
        assert "color_histogram" in names
        assert "content_metadata" in names

    def test_unknown_set_raises(self, extractor):
        with pytest.raises(KeyError):
            extractor.spec("no-such-set")


class TestExtraction:
    def test_output_dimension_matches_spec(self, extractor):
        rng = np.random.default_rng(0)
        obj = _media("m1", rng.normal(size=16))
        vector = extractor.extract(obj, "texture")
        assert vector.shape == (extractor.spec("texture").dimensions,)

    def test_output_is_normalised(self, extractor):
        rng = np.random.default_rng(0)
        obj = _media("m1", rng.normal(size=16))
        vector = extractor.extract(obj, "color_histogram")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_extraction_is_deterministic(self, extractor):
        rng = np.random.default_rng(0)
        obj = _media("m1", rng.normal(size=16))
        a = extractor.extract(obj, "shape")
        b = extractor.extract(obj, "shape")
        # Extraction is a pure function of (feature set, item): repeated
        # calls reproduce the same vector, and a second extractor with
        # the same seed agrees bitwise.
        np.testing.assert_array_equal(a, b)
        other = FeatureExtractor(16, RngStreams(7).spawn("feat"))
        c = other.extract(obj, "shape")
        np.testing.assert_array_equal(a, c)

    def test_wrong_feature_dim_rejected(self, extractor):
        obj = _media("m1", np.ones(4))
        with pytest.raises(ValueError):
            extractor.extract(obj, "texture")

    def test_high_fidelity_preserves_similarity_better(self, extractor):
        """Items with identical truth should look more alike under
        content_metadata (fidelity .85) than color_histogram (.45)."""
        rng = np.random.default_rng(1)
        truth = rng.normal(size=16)
        pairs = [(_media(f"a{i}", truth), _media(f"b{i}", truth)) for i in range(30)]

        def mean_cosine(feature_set):
            sims = []
            for a, b in pairs:
                va = extractor.extract(a, feature_set)
                vb = extractor.extract(b, feature_set)
                sims.append(float(np.dot(va, vb)))
            return np.mean(sims)

        assert mean_cosine("content_metadata") > mean_cosine("color_histogram")

    def test_extract_many_shape(self, extractor):
        rng = np.random.default_rng(0)
        objs = [_media(f"m{i}", rng.normal(size=16)) for i in range(5)]
        matrix = extractor.extract_many(objs, "texture")
        assert matrix.shape == (5, extractor.spec("texture").dimensions)

    def test_extract_many_empty(self, extractor):
        matrix = extractor.extract_many([], "texture")
        assert matrix.shape == (0, extractor.spec("texture").dimensions)
