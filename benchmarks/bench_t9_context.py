"""T9 (§8 Contextualization): context-conditional vs static profiles.

Regenerates the T9 tables.  Users have genuinely context-dependent tastes
(a work persona and a leisure persona).  We compare ranking quality when
the system uses (a) a static profile (the average persona), (b) the
context-conditional profile with the *true* context, and (c) the
conditional profile driven by the *inferred* context.  A companion table
reports the context inferencer's accuracy.

Expected shape: conditional-with-true-context > static; inferred context
recovers most of the gap.
"""

import pytest

from repro import Consumer, UserProfile, build_agora
from repro.context import (
    ActivationRule,
    ActivityObservation,
    ConditionalProfile,
    Context,
    ContextInferencer,
    ProfileOverlay,
)
from repro.experiments import ExperimentResult, ndcg, summarize
from repro.personalization import PersonalizedRanker
from repro.workloads import QueryWorkloadGenerator

WORK_TOPIC = "academic-theses"
LEISURE_TOPIC = "tourism"


def _personal_gain(agora, interests, query, item):
    topical = agora.oracle.relevance(query, item)
    personal = agora.topic_space.relevance(interests, item.latent)
    return 0.5 * topical + 0.5 * personal


def _ndcg(agora, interests, query, items, k=10):
    return ndcg([_personal_gain(agora, interests, query, item) for item in items], k)


def _make_conditional(agora, user_id):
    """A user whose true taste flips between work and leisure personas."""
    space = agora.topic_space
    work_interests = space.basis(WORK_TOPIC, 0.85)
    leisure_interests = space.basis(LEISURE_TOPIC, 0.85)
    static = UserProfile(
        user_id=user_id,
        interests=0.5 * work_interests + 0.5 * leisure_interests,
    )
    conditional = ConditionalProfile(static)
    conditional.add_overlay(
        ActivationRule({"task": {"deep-research", "paper-writing"}}),
        ProfileOverlay(interest_shift=3.0 * work_interests),
    )
    conditional.add_overlay(
        ActivationRule({"task": "leisure"}),
        ProfileOverlay(interest_shift=3.0 * leisure_interests),
    )
    return static, conditional, work_interests, leisure_interests


def _train_inferencer(rng):
    inferencer = ContextInferencer()
    evidence_map = {
        "paper-writing": ActivityObservation("query", "thesis"),
        "leisure": ActivityObservation("browse", "magazine"),
    }
    for task, evidence in evidence_map.items():
        for __ in range(20):
            inferencer.observe(evidence, Context(task=task))
    return inferencer, evidence_map


def run_t9(seed=59, n_users=6, queries_per_context=4) -> ExperimentResult:
    agora = build_agora(seed=seed, n_sources=8, items_per_source=40,
                        calibration_pairs=300)
    workload = QueryWorkloadGenerator(
        agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("t9-q"),
    )
    rng = agora.sim.rng.stream("t9")
    inferencer, evidence_map = _train_inferencer(rng)
    ndcg = {"static": [], "conditional_true_context": [],
            "conditional_inferred_context": []}
    inference_correct, inference_total = 0, 0
    contexts = {
        "paper-writing": Context(task="paper-writing"),
        "leisure": Context(task="leisure"),
    }
    true_interest_topic = {"paper-writing": WORK_TOPIC, "leisure": LEISURE_TOPIC}
    for user_index in range(n_users):
        static, conditional, work_i, leisure_i = _make_conditional(
            agora, f"ctx-user-{user_index}",
        )
        consumer = Consumer(agora, conditional, planner="greedy")
        for task, context in contexts.items():
            true_interests = (
                work_i if task == "paper-writing" else leisure_i
            )
            for __ in range(queries_per_context):
                query = workload.topic_query(true_interest_topic[task], k=12)
                outcome = consumer.ask(query, personalize=False)
                # Static profile ranking.
                static_ranker = PersonalizedRanker(
                    static, consumer.concept_of, personalization_weight=0.6,
                )
                ndcg["static"].append(_ndcg(
                    agora, true_interests, query,
                    static_ranker.rerank_items(outcome.results),
                ))
                # Conditional profile with the true context.
                active = conditional.active_profile(context)
                true_ranker = PersonalizedRanker(
                    active, consumer.concept_of, personalization_weight=0.6,
                )
                ndcg["conditional_true_context"].append(_ndcg(
                    agora, true_interests, query,
                    true_ranker.rerank_items(outcome.results),
                ))
                # Conditional profile with the inferred context.
                inferred = inferencer.infer(evidence_map[task])
                inference_total += 1
                if inferred.task == task:
                    inference_correct += 1
                inferred_ranker = PersonalizedRanker(
                    conditional.active_profile(inferred), consumer.concept_of,
                    personalization_weight=0.6,
                )
                ndcg["conditional_inferred_context"].append(_ndcg(
                    agora, true_interests, query,
                    inferred_ranker.rerank_items(outcome.results),
                ))
    result = ExperimentResult(
        "T9", "Context-conditional vs static profiles (personal NDCG@10)",
        ["profile_mode", "ndcg"],
    )
    for name in ("static", "conditional_true_context",
                 "conditional_inferred_context"):
        result.add_row(name, summarize(ndcg[name]).mean)
    result.add_note(
        "context inference task accuracy: "
        f"{inference_correct / max(inference_total, 1):.2f}"
    )
    return result


@pytest.mark.benchmark(group="T9")
def test_t9_context(benchmark):
    result = benchmark.pedantic(run_t9, rounds=1, iterations=1)
    result.print()
    rows = {row[0]: row for row in result.rows}
    assert rows["conditional_true_context"][1] > rows["static"][1]
    assert rows["conditional_inferred_context"][1] >= rows["static"][1]


if __name__ == "__main__":
    run_t9().print()
