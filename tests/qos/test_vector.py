"""Tests for QoS vectors, weights and requirements."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.qos import (
    QoSRequirement,
    QoSVector,
    QoSWeights,
    scalarize,
    time_utility,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
qos_vectors = st.builds(
    QoSVector,
    response_time=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    completeness=unit,
    freshness=unit,
    correctness=unit,
    trust=unit,
)


class TestQoSVector:
    def test_defaults_are_perfect(self):
        vector = QoSVector()
        assert vector.completeness == 1.0
        assert vector.response_time == 0.0

    def test_negative_response_time_rejected(self):
        with pytest.raises(ValueError):
            QoSVector(response_time=-1.0)

    def test_quality_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            QoSVector(completeness=1.5)


class TestScalarization:
    def test_time_utility_half_life(self):
        assert time_utility(10.0, half_life=10.0) == pytest.approx(0.5)

    def test_time_utility_zero(self):
        assert time_utility(0.0, half_life=10.0) == 1.0

    def test_time_utility_negative_rejected(self):
        with pytest.raises(ValueError):
            time_utility(-1.0, half_life=10.0)

    def test_perfect_vector_scores_one(self):
        assert scalarize(QoSVector(), QoSWeights()) == pytest.approx(1.0)

    @given(qos_vectors)
    def test_scalarize_bounded(self, vector):
        value = scalarize(vector, QoSWeights())
        assert 0.0 <= value <= 1.0 + 1e-9

    def test_weights_shift_ranking(self):
        fast_incomplete = QoSVector(response_time=0.5, completeness=0.2)
        slow_complete = QoSVector(response_time=50.0, completeness=1.0)
        speed_lover = QoSWeights(response_time=10.0, completeness=0.1,
                                 freshness=0.1, correctness=0.1, trust=0.1)
        completeness_lover = QoSWeights(response_time=0.1, completeness=10.0,
                                        freshness=0.1, correctness=0.1, trust=0.1)
        assert scalarize(fast_incomplete, speed_lover) > scalarize(slow_complete, speed_lover)
        assert scalarize(slow_complete, completeness_lover) > scalarize(
            fast_incomplete, completeness_lover
        )

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            QoSWeights(trust=-1.0)

    def test_all_zero_weights_rejected(self):
        weights = QoSWeights(response_time=0, completeness=0, freshness=0,
                             correctness=0, trust=0)
        with pytest.raises(ValueError):
            weights.normalised()

    def test_normalised_sums_to_one(self):
        weights = QoSWeights(response_time=2.0, completeness=3.0).normalised()
        total = (weights.response_time + weights.completeness + weights.freshness
                 + weights.correctness + weights.trust)
        assert total == pytest.approx(1.0)


class TestRequirement:
    def test_violated_dimensions(self):
        requirement = QoSRequirement(
            max_response_time=5.0, min_completeness=0.8, min_trust=0.9
        )
        delivered = QoSVector(response_time=6.0, completeness=0.7, trust=0.95)
        assert requirement.violated_dimensions(delivered) == [
            "response_time", "completeness",
        ]
