"""Tests for context inference."""

import pytest

from repro.context import ActivityObservation, Context, ContextInferencer


def _train(inferencer):
    # Browsing museums in the morning = project-start research.
    for __ in range(10):
        inferencer.observe(
            ActivityObservation(mode="browse", dominant_domain="museum"),
            Context(time_of_day="morning", task="project-start",
                    previous_activity="browse"),
        )
    # Direct queries on theses in the evening = paper writing.
    for __ in range(10):
        inferencer.observe(
            ActivityObservation(mode="query", dominant_domain="thesis"),
            Context(time_of_day="evening", task="paper-writing",
                    previous_activity="query"),
        )
    return inferencer


class TestInference:
    def test_untrained_returns_default(self):
        inferencer = ContextInferencer()
        default = Context(task="leisure")
        assert inferencer.infer(
            ActivityObservation("query", "museum"), default=default
        ) == default

    def test_learns_evidence_mapping(self):
        inferencer = _train(ContextInferencer())
        predicted = inferencer.infer(ActivityObservation("browse", "museum"))
        assert predicted.task == "project-start"
        assert predicted.time_of_day == "morning"
        predicted = inferencer.infer(ActivityObservation("query", "thesis"))
        assert predicted.task == "paper-writing"

    def test_unseen_evidence_falls_back_to_marginal(self):
        inferencer = ContextInferencer()
        for __ in range(9):
            inferencer.observe(
                ActivityObservation("query", "thesis"),
                Context(task="paper-writing"),
            )
        inferencer.observe(
            ActivityObservation("browse", "museum"),
            Context(task="leisure"),
        )
        predicted = inferencer.infer(ActivityObservation("feed", "magazine"))
        assert predicted.task == "paper-writing"  # the dominant marginal

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            ContextInferencer(smoothing=0.0)
