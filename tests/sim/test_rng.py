"""Tests for deterministic RNG streams."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.rng import RngStreams, derive_seed


class TestDeriveSeed:
    def test_stable_for_same_inputs(self):
        assert derive_seed(42, "a.b") == derive_seed(42, "a.b")

    def test_differs_by_name(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_differs_by_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=40))
    def test_returns_uint64(self, seed, name):
        value = derive_seed(seed, name)
        assert 0 <= value < 2**64


class TestRngStreams:
    def test_same_name_returns_same_generator(self):
        streams = RngStreams(7)
        assert streams.stream("x") is streams.stream("x")

    def test_streams_are_independent_of_creation_order(self):
        first = RngStreams(7)
        a1 = first.stream("a").random(5)
        __ = first.stream("b").random(5)

        second = RngStreams(7)
        __ = second.stream("b").random(5)
        a2 = second.stream("a").random(5)
        np.testing.assert_array_equal(a1, a2)

    def test_different_seeds_give_different_draws(self):
        a = RngStreams(1).stream("x").random(8)
        b = RngStreams(2).stream("x").random(8)
        assert not np.allclose(a, b)

    def test_fresh_resets_state(self):
        streams = RngStreams(7)
        first_draw = streams.stream("x").random(4)
        streams.stream("x").random(4)
        repeat = streams.fresh("x").random(4)
        np.testing.assert_array_equal(first_draw, repeat)

    def test_names_lists_created_streams(self):
        streams = RngStreams(7)
        streams.stream("b")
        streams.stream("a")
        assert list(streams.draw_counts()) == ["a", "b"]


class TestDrawAccounting:
    def test_draw_calls_are_counted_per_stream(self):
        streams = RngStreams(7)
        streams.stream("a").random(5)
        streams.stream("a").normal()
        streams.stream("b").integers(0, 10)
        assert streams.draw_counts() == {"a": 2, "b": 1}
        assert streams.draw_total == 3

    def test_created_but_undrawn_stream_reports_zero(self):
        streams = RngStreams(7)
        streams.stream("idle")
        assert streams.draw_counts() == {"idle": 0}
        assert streams.draw_total == 0

    def test_counting_does_not_change_bitstream(self):
        counted = RngStreams(7).stream("x")
        raw = np.random.default_rng(derive_seed(7, "x"))
        np.testing.assert_array_equal(counted.random(16), raw.random(16))
        np.testing.assert_array_equal(
            counted.integers(0, 1000, size=16), raw.integers(0, 1000, size=16)
        )
        np.testing.assert_array_equal(counted.normal(size=16), raw.normal(size=16))

    def test_counts_survive_scoped_indirection(self):
        root = RngStreams(7)
        scoped = root.spawn("net").spawn("link")
        scoped.stream("latency").random(3)
        assert root.draw_counts() == {"net.link.latency": 1}

    def test_counts_cumulative_across_fresh(self):
        streams = RngStreams(7)
        streams.stream("x").random(2)
        streams.fresh("x").random(2)
        assert streams.draw_counts() == {"x": 2}

    def test_fresh_streams_are_not_retained(self):
        """Per-item ``fresh`` streams leave no generator behind.

        Draw accounting still sees every one of them, so flight-recorder
        checkpoints and manifests are unchanged.
        """
        streams = RngStreams(7)
        streams.stream("kept").random()
        retained = len(streams._streams)
        for index in range(1000):
            streams.fresh(f"noise.{index}").random(2)
        assert len(streams._streams) == retained
        counts = streams.draw_counts()
        assert len(counts) == 1001
        assert sum(counts.values()) == streams.draw_total == 1001
        assert counts["noise.999"] == 1

    def test_fresh_replays_and_stream_restarts_after_it(self):
        streams = RngStreams(7)
        first = streams.fresh("x").random(4)
        np.testing.assert_array_equal(streams.fresh("x").random(4), first)
        np.testing.assert_array_equal(streams.stream("x").random(4), first)

    def test_counts_sorted_by_name(self):
        streams = RngStreams(7)
        streams.stream("b").random()
        streams.stream("a").random()
        assert list(streams.draw_counts()) == ["a", "b"]

    def test_cached_wrapper_still_counts(self):
        streams = RngStreams(7)
        gen = streams.stream("x")
        gen.random()  # first access caches the wrapper in __dict__
        gen.random()
        gen.random()
        assert streams.draw_counts()["x"] == 3


class TestScopedStreams:
    def test_scoped_prefixes_names(self):
        root = RngStreams(5)
        scoped = root.spawn("net")
        scoped.stream("latency")
        assert list(root.draw_counts()) == ["net.latency"]

    def test_nested_scopes(self):
        root = RngStreams(5)
        inner = root.spawn("a").spawn("b")
        inner.stream("x")
        assert list(root.draw_counts()) == ["a.b.x"]

    def test_scoped_matches_direct_access(self):
        root1 = RngStreams(5)
        direct = root1.stream("net.latency").random(3)
        root2 = RngStreams(5)
        scoped = root2.spawn("net").stream("latency").random(3)
        np.testing.assert_array_equal(direct, scoped)
