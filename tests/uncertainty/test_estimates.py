"""Tests for uncertain estimates."""

import pytest

from repro.uncertainty import UncertainEstimate


class TestConstruction:

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            UncertainEstimate(mean=1.0, std=-0.1)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            UncertainEstimate(mean=1.0, low=2.0, high=0.0)

    def test_mean_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            UncertainEstimate(mean=5.0, low=0.0, high=1.0)
