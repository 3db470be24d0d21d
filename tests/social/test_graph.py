"""Tests for the social graph."""

import pytest

from repro.social import SocialGraph


@pytest.fixture
def graph():
    g = SocialGraph()
    g.befriend("iris", "jason", strength=1.0)
    g.befriend("jason", "maria", strength=0.5)
    return g


class TestTies:
    def test_befriend_symmetric(self, graph):
        assert graph.are_friends("iris", "jason")
        assert graph.are_friends("jason", "iris")

    def test_self_friendship_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.befriend("iris", "iris")

    def test_invalid_strength(self, graph):
        with pytest.raises(ValueError):
            graph.befriend("a", "b", strength=0.0)


class TestDistance:
    def test_self_distance_zero(self, graph):
        assert graph.distance("iris", "iris") == 0.0

    def test_direct_distance(self, graph):
        assert graph.distance("iris", "jason") == pytest.approx(1.0)

    def test_weak_ties_are_longer(self, graph):
        assert graph.distance("jason", "maria") == pytest.approx(2.0)

    def test_path_distance_sums(self, graph):
        assert graph.distance("iris", "maria") == pytest.approx(3.0)

    def test_disconnected_infinite(self, graph):
        assert graph.distance("iris", "hermit") == float("inf")

    def test_proximity_bounds(self, graph):
        assert graph.proximity("iris", "iris") == 1.0
        assert graph.proximity("iris", "hermit") == 0.0
        assert 0.0 < graph.proximity("iris", "maria") < 1.0


class TestNeighbourhood:
    def test_len_contains(self, graph):
        assert len(graph) == 3
        assert "maria" in graph
        assert "hermit" not in graph
