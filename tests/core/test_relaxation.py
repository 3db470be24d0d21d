"""Tests for QoS requirement relaxation."""

import pytest

from repro import Consumer, QoSRequirement, QoSVector, UserProfile, build_agora
from repro.workloads import QueryWorkloadGenerator


class TestRelaxedRequirement:
    def test_noop_at_zero(self):
        requirement = QoSRequirement(max_response_time=5.0, min_completeness=0.8)
        relaxed = requirement.relaxed(0.0)
        assert relaxed == requirement

    def test_bounds_loosen(self):
        requirement = QoSRequirement(
            max_response_time=5.0, min_completeness=0.8, min_trust=0.6,
        )
        relaxed = requirement.relaxed(0.5)
        assert relaxed.max_response_time == pytest.approx(10.0)
        assert relaxed.min_completeness == pytest.approx(0.4)
        assert relaxed.min_trust == pytest.approx(0.3)

    def test_unconstrained_stays_unconstrained(self):
        relaxed = QoSRequirement(min_completeness=0.8).relaxed(0.5)
        assert relaxed.max_response_time is None
        assert relaxed.min_freshness is None

    def test_anything_meeting_original_meets_relaxed(self):
        requirement = QoSRequirement(
            max_response_time=5.0, min_completeness=0.8,
            min_correctness=0.7, min_freshness=0.5, min_trust=0.4,
        )
        relaxed = requirement.relaxed(0.4)
        vector = QoSVector(response_time=4.9, completeness=0.81,
                           correctness=0.71, freshness=0.51, trust=0.41)
        assert not requirement.violated_dimensions(vector)
        assert not relaxed.violated_dimensions(vector)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            QoSRequirement().relaxed(1.0)
        with pytest.raises(ValueError):
            QoSRequirement().relaxed(-0.1)


class TestAskWithRelaxation:
    @pytest.fixture(scope="class")
    def setup(self):
        agora = build_agora(seed=37, n_sources=6, items_per_source=25,
                            calibration_pairs=200)
        workload = QueryWorkloadGenerator(
            agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("rx"),
        )
        profile = UserProfile(
            user_id="iris",
            interests=agora.topic_space.basis("folk-jewelry", 0.9),
        )
        consumer = Consumer(agora, profile, planner="trading")
        return agora, workload, consumer

    def test_reasonable_requirement_needs_no_relaxation(self, setup):
        agora, workload, consumer = setup
        query = workload.topic_query(
            "folk-jewelry", k=5,
            requirement=QoSRequirement(min_completeness=0.1),
        )
        result = consumer.ask_with_relaxation(query)
        assert result.query.requirement.min_completeness == pytest.approx(0.1)
        assert not result.unserved_jobs

    def test_impossible_requirement_relaxes_until_served(self, setup):
        agora, workload, consumer = setup
        strict = QoSRequirement(
            min_completeness=0.999, min_correctness=0.999,
            max_response_time=1e-4,
        )
        query = workload.topic_query("folk-jewelry", k=5, requirement=strict)
        blunt = consumer.ask(query)
        assert blunt.unserved_jobs  # the strict ask fails outright
        relaxed_query = workload.topic_query("folk-jewelry", k=5,
                                             requirement=strict)
        result = consumer.ask_with_relaxation(
            relaxed_query, relaxation_step=0.6, max_relaxations=5,
        )
        assert not result.unserved_jobs
        assert len(result.ranked_items) > 0
        # The served requirement is weaker than the original demand.
        assert (result.query.requirement.min_completeness
                < strict.min_completeness)

    def test_invalid_parameters(self, setup):
        agora, workload, consumer = setup
        query = workload.topic_query("folk-jewelry", k=5)
        with pytest.raises(ValueError):
            consumer.ask_with_relaxation(query, relaxation_step=1.0)
        with pytest.raises(ValueError):
            consumer.ask_with_relaxation(query, max_relaxations=-1)
