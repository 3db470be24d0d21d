"""T6 (§5 Personalization): personalized vs generic ranking; learning.

Regenerates the T6 tables.  A population of users with known ground-truth
interests issues queries; rankings are scored by NDCG against each user's
*personal* relevance (interest-weighted), comparing:

- generic: calibrated-probability order (no profile),
- personalized (true profile): the oracle upper bound,
- personalized (learned profile): profile learned online from simulated
  clicks — convergence is the second table.

Expected shape: true-profile > learned-profile > generic; the learned
profile's cosine to the truth rises with sessions.
"""

import numpy as np
import pytest

from repro import Consumer, build_agora
from repro.experiments import ExperimentResult, ndcg, summarize, win_rate
from repro.personalization import PersonalizedRanker, ProfileLearner
from repro.workloads import ClickModel, QueryWorkloadGenerator, UserPopulationGenerator


def _personal_ndcg(agora, profile, query, items, k=10):
    """NDCG against interest-weighted personal relevance."""
    def gain(item):
        topical = agora.oracle.relevance(query, item)
        personal = agora.topic_space.relevance(profile.interests, item.latent)
        return 0.5 * topical + 0.5 * personal

    return ndcg([gain(item) for item in items], k)


def run_t6(seed=41, n_users=8, sessions_per_user=10) -> ExperimentResult:
    agora = build_agora(seed=seed, n_sources=8, items_per_source=40,
                        calibration_pairs=300)
    population = UserPopulationGenerator(
        agora.topic_space, agora.sim.rng.spawn("t6-pop"),
    ).generate_population(n_users)
    workload = QueryWorkloadGenerator(
        agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("t6-q"),
    )
    clicks = ClickModel(agora.topic_space, agora.sim.rng.spawn("t6-clicks"))
    learner = ProfileLearner(
        agora.topic_space.n_topics,
        concept_fn=lambda item: agora.engine.cross.lifter.lift(item),
    )
    ndcg = {"generic": [], "personalized_true": [], "personalized_learned": []}
    convergence = []  # (session index, cosine to truth)
    for profile in population:
        consumer = Consumer(agora, profile, planner="greedy")
        for session in range(sessions_per_user):
            query = workload.interest_query(profile, k=12)
            outcome = consumer.ask(query, personalize=False)
            generic_items = outcome.results.items()
            true_ranker = PersonalizedRanker(
                profile, consumer.concept_of, personalization_weight=0.6,
            )
            learned_profile = learner.profile(profile.user_id, base=profile)
            learned_ranker = PersonalizedRanker(
                learned_profile, consumer.concept_of, personalization_weight=0.6,
            )
            ndcg["generic"].append(
                _personal_ndcg(agora, profile, query, generic_items)
            )
            ndcg["personalized_true"].append(
                _personal_ndcg(agora, profile, query,
                               true_ranker.rerank_items(outcome.results))
            )
            ndcg["personalized_learned"].append(
                _personal_ndcg(agora, profile, query,
                               learned_ranker.rerank_items(outcome.results))
            )
            # The user reacts to what they were shown → learning signal.
            events = clicks.simulate(profile, generic_items)
            learner.observe_all(events)
            cosine = float(np.dot(
                learner.interests(profile.user_id), profile.interests,
            ) / (np.linalg.norm(learner.interests(profile.user_id))
                 * np.linalg.norm(profile.interests)))
            convergence.append((session, cosine))
    result = ExperimentResult(
        "T6", "Personalized vs generic ranking (personal NDCG@10)",
        ["ranker", "ndcg", "win_rate_vs_generic"],
    )
    for name in ("generic", "personalized_true", "personalized_learned"):
        result.add_row(
            name,
            summarize(ndcg[name]).mean,
            win_rate(ndcg[name], ndcg["generic"]),
        )
    learning = ExperimentResult(
        "T6b", "Profile learning convergence (cosine to true interests)",
        ["session", "cosine_to_truth"],
    )
    by_session = {}
    for session, cosine in convergence:
        by_session.setdefault(session, []).append(cosine)
    for session in sorted(by_session):
        learning.add_row(session, summarize(by_session[session]).mean)
    result.add_note("see T6b for the learning curve")
    result.companion = learning  # type: ignore[attr-defined]
    return result


@pytest.mark.benchmark(group="T6")
def test_t6_personalization(benchmark):
    result = benchmark.pedantic(run_t6, rounds=1, iterations=1)
    result.print()
    result.companion.print()
    rows = {row[0]: row for row in result.rows}
    assert rows["personalized_true"][1] > rows["generic"][1]
    assert rows["personalized_learned"][1] >= rows["generic"][1] - 0.01
    curve = [row[1] for row in result.companion.rows]
    assert curve[-1] > curve[0]  # learning converges towards the truth


if __name__ == "__main__":
    result = run_t6()
    result.print()
    result.companion.print()
