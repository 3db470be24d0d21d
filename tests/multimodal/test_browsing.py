"""Tests for the browse graph and profile-guided browser."""

import numpy as np
import pytest

from repro.data import DomainSpec
from repro.multimodal import BrowseGraph, Browser
from repro.personalization import UserProfile


def _items(corpus_generator, topic, count, name):
    spec = DomainSpec(
        name=name, topic_prior={topic: 1.0},
        type_mix={"text": 1.0, "media": 0.0, "compound": 0.0},
        concentration=0.3,
    )
    return corpus_generator.generate(spec, count)


@pytest.fixture
def graph(corpus_generator, matching_engine):
    items = (
        _items(corpus_generator, "folk-jewelry", 8, "jewelry")
        + _items(corpus_generator, "tourism", 8, "travel")
    )
    graph = BrowseGraph(matching_engine, k_links=3)
    graph.build(items)
    return graph


def _browser(graph, interests, streams, temperature=0.2):
    profile = UserProfile(user_id="iris", interests=np.asarray(interests, float))
    return Browser(
        graph, profile, concept_fn=lambda item: item.latent,
        streams=streams, temperature=temperature,
    )


class TestBrowseGraph:
    def test_build_links_everyone(self, graph):
        assert graph.size == 16
        for item in graph.items():
            assert len(graph.neighbours(item.item_id)) == 3

    def test_links_prefer_same_topic(self, graph):
        jewelry_items = [i for i in graph.items() if i.domain == "jewelry"]
        same_topic_links = 0
        total_links = 0
        for item in jewelry_items:
            for neighbour in graph.neighbours(item.item_id):
                total_links += 1
                if neighbour.domain == "jewelry":
                    same_topic_links += 1
        assert same_topic_links / total_links > 0.6

    def test_empty_build_rejected(self, matching_engine):
        graph = BrowseGraph(matching_engine)
        with pytest.raises(ValueError):
            graph.build([])

    def test_unknown_item(self, graph):
        with pytest.raises(KeyError):
            graph.neighbours("nothing")

    def test_invalid_k_links(self, matching_engine):
        with pytest.raises(ValueError):
            BrowseGraph(matching_engine, k_links=0)


class TestBrowser:
    def test_start_picks_most_interesting(self, graph, topic_space, streams):
        interests = topic_space.basis("folk-jewelry", 0.95)
        browser = _browser(graph, interests, streams.spawn("b1"))
        step = browser.start()
        assert step.item.domain == "jewelry"

    def test_walk_length(self, graph, topic_space, streams):
        interests = topic_space.basis("folk-jewelry", 0.95)
        browser = _browser(graph, interests, streams.spawn("b2"))
        trail = browser.walk(steps=5)
        assert len(trail) == 6  # start + 5 hops

    def test_goal_driven_stays_on_topic(self, graph, topic_space, streams):
        interests = topic_space.basis("folk-jewelry", 0.95)
        focused = _browser(graph, interests, streams.spawn("b3"), temperature=0.05)
        trail = focused.walk(steps=20)
        on_topic = sum(1 for step in trail if step.item.domain == "jewelry")
        assert on_topic / len(trail) > 0.7

    def test_high_temperature_explores_more(self, graph, topic_space, streams):
        interests = topic_space.basis("folk-jewelry", 0.95)
        focused = _browser(graph, interests, streams.spawn("b4"), temperature=0.02)
        wanderer = _browser(graph, interests, streams.spawn("b5"), temperature=5.0)
        focused_domains = {s.item.domain for s in focused.walk(30)}
        wanderer_domains = {s.item.domain for s in wanderer.walk(30)}
        assert len(wanderer_domains) >= len(focused_domains)

    def test_invalid_temperature(self, graph, topic_space, streams):
        with pytest.raises(ValueError):
            _browser(graph, topic_space.basis("tourism"), streams.spawn("b6"),
                     temperature=0.0)

    def test_negative_steps_rejected(self, graph, topic_space, streams):
        browser = _browser(graph, topic_space.basis("tourism"), streams.spawn("b7"))
        with pytest.raises(ValueError):
            browser.walk(-1)
