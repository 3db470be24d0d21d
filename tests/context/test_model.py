"""Tests for the context model."""

import pytest

from repro.context import Context


class TestContext:
    def test_defaults_valid(self):
        context = Context()
        assert context.companions == ()

    def test_invalid_time(self):
        with pytest.raises(ValueError):
            Context(time_of_day="midnight")

    def test_invalid_task(self):
        with pytest.raises(ValueError):
            Context(task="procrastinating")

    def test_invalid_activity(self):
        with pytest.raises(ValueError):
            Context(previous_activity="sleeping")

    def test_companions_sorted(self):
        context = Context(companions=("zoe", "adam"))
        assert context.companions == ("adam", "zoe")

    def test_value_lookup(self):
        context = Context(location="Paris")
        assert context.value("location") == "Paris"
        with pytest.raises(KeyError):
            context.value("mood")

    def test_with_changes(self):
        context = Context().with_(task="leisure")
        assert context.task == "leisure"
        assert Context().task != "leisure"
