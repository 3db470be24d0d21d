"""T7 (§6 Socialization): social fusion quality by affinity threshold.

Regenerates the T7 tables.  A clustered user population (communities of
shared taste) with a homophilous social graph; each user ranks a result
pool with (a) their own profile only, (b) social fusion over neighbours
above an affinity threshold, and (c) fusion over *random* users (the
control showing that affinity — not mere crowd signal — carries the
value).  A second table shows how privacy settings shrink the usable
neighbourhood.

Expected shape: fusion with high-affinity neighbours ≥ personal-only;
fusion with random users hurts; stricter privacy leaves fewer visible
neighbours.
"""

import numpy as np
import pytest

from repro import build_agora
from repro.experiments import ExperimentResult, ndcg, summarize
from repro.personalization import PersonalizedRanker, ProfileStore, UserProfile
from repro.social import (
    AffineNeighbour,
    AffinityIndex,
    PrivacyPolicy,
    PrivacyRegistry,
    SocialGraph,
    SocialRanker,
    Visibility,
)
from repro.workloads import QueryWorkloadGenerator


def _build_community(agora, n_per_cluster=5, noise=0.25):
    """Three interest communities with intra-community friendships."""
    space = agora.topic_space
    rng = agora.sim.rng.stream("t7-users")
    clusters = {
        "jewelry": space.basis("folk-jewelry", 0.9),
        "dance": space.basis("dance-forms", 0.9),
        "fashion": space.basis("fashion-trends", 0.9),
    }
    store = ProfileStore()
    graph = SocialGraph()
    members = {name: [] for name in clusters}
    for cluster_name, centre in sorted(clusters.items()):
        for index in range(n_per_cluster):
            interests = np.clip(
                centre + rng.normal(0, noise, size=space.n_topics), 1e-6, None,
            )
            profile = UserProfile(
                user_id=f"{cluster_name}-{index}", interests=interests,
            )
            store.save(profile)
            members[cluster_name].append(profile)
        for a in members[cluster_name]:
            for b in members[cluster_name]:
                if a.user_id < b.user_id:
                    graph.befriend(a.user_id, b.user_id, strength=0.9)
    return store, graph, members


def _personal_gain(agora, profile, query, item):
    topical = agora.oracle.relevance(query, item)
    personal = agora.topic_space.relevance(profile.interests, item.latent)
    return 0.5 * topical + 0.5 * personal


def _ndcg(agora, profile, query, items, k=10):
    return ndcg([_personal_gain(agora, profile, query, item) for item in items], k)


def run_t7(seed=47, queries_per_user=4) -> ExperimentResult:
    agora = build_agora(seed=seed, n_sources=8, items_per_source=40,
                        calibration_pairs=300)
    store, graph, members = _build_community(agora)
    workload = QueryWorkloadGenerator(
        agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("t7-q"),
    )
    from repro import Consumer

    index = AffinityIndex(store, graph)
    rng = agora.sim.rng.stream("t7-random")
    conditions = {
        "personal_only": [],
        "fusion_affine_0.6": None,   # filled per user
        "fusion_affine_0.3": None,
        "fusion_random_users": None,
    }
    ndcg = {name: [] for name in conditions}
    all_profiles = [store.load(uid) for uid in store.user_ids()]
    for _, cluster_profiles in sorted(members.items()):
        for profile in cluster_profiles[:3]:
            consumer = Consumer(agora, profile, planner="greedy")
            for __ in range(queries_per_user):
                query = workload.interest_query(profile, k=12)
                outcome = consumer.ask(query, personalize=False)
                personal_ranker = PersonalizedRanker(
                    profile, consumer.concept_of, personalization_weight=0.6,
                )
                neighbourhoods = {
                    "personal_only": [],
                    "fusion_affine_0.6": index.neighbourhood(
                        profile, k=4, min_affinity=0.6),
                    "fusion_affine_0.3": index.neighbourhood(
                        profile, k=4, min_affinity=0.3),
                    "fusion_random_users": [
                        AffineNeighbour(p.user_id, 1.0, p)
                        for p in [all_profiles[int(rng.integers(len(all_profiles)))]
                                  for __ in range(4)]
                    ],
                }
                for name, neighbours in neighbourhoods.items():
                    ranker = SocialRanker(personal_ranker, neighbours,
                                          social_weight=0.4)
                    items = ranker.rerank_items(outcome.results)
                    ndcg[name].append(_ndcg(agora, profile, query, items))
    result = ExperimentResult(
        "T7", "Social fusion by affinity (personal NDCG@10)",
        ["condition", "ndcg"],
    )
    for name in ("personal_only", "fusion_affine_0.6", "fusion_affine_0.3",
                 "fusion_random_users"):
        result.add_row(name, summarize(ndcg[name]).mean)
    result.add_note(
        "expected shape: high-affinity fusion ≥ personal-only > random-user fusion"
    )
    result.companion = run_t7_privacy(agora, store, graph)  # type: ignore[attr-defined]
    return result


def run_t7_privacy(agora, store, graph) -> ExperimentResult:
    """How privacy levels shrink the usable neighbourhood."""
    result = ExperimentResult(
        "T7b", "Privacy filtering of the social neighbourhood",
        ["interests_visibility", "mean_visible_neighbours"],
    )
    for label, level in [("public", Visibility.PUBLIC),
                         ("friends", Visibility.FRIENDS),
                         ("private", Visibility.PRIVATE)]:
        privacy = PrivacyRegistry(graph)
        for user_id in store.user_ids():
            policy = PrivacyPolicy(user_id)
            policy.set_level("interests", level)
            privacy.set_policy(policy)
        index = AffinityIndex(store, graph, privacy=privacy)
        counts = [
            len(index.neighbourhood(store.load(user_id), k=100))
            for user_id in store.user_ids()
        ]
        result.add_row(label, float(np.mean(counts)))
    result.add_note("expected shape: public > friends > private (=0)")
    return result


@pytest.mark.benchmark(group="T7")
def test_t7_social(benchmark):
    result = benchmark.pedantic(run_t7, rounds=1, iterations=1)
    result.print()
    result.companion.print()
    rows = {row[0]: row for row in result.rows}
    assert rows["fusion_affine_0.6"][1] >= rows["fusion_random_users"][1]
    privacy_rows = {row[0]: row for row in result.companion.rows}
    assert privacy_rows["public"][1] > privacy_rows["friends"][1] > 0
    assert privacy_rows["private"][1] == 0.0


if __name__ == "__main__":
    result = run_t7()
    result.print()
    result.companion.print()
