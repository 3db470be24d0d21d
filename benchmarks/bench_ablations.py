"""Ablations of the design decisions called out in DESIGN.md §2.

A1  calibrated probabilities vs raw scores for confidence filtering;
A2  multi-issue negotiation vs price-only haggling;
A3  Pareto-front search vs single weighted-sum scalarization;
A4  affinity-weighted vs uniform social fusion;
A5  risk-aware plan choice vs risk-blind (per risk attitude);
A6  shared MQO execution vs independent execution;
A7  trust-discounted candidate beliefs vs taking advertisements at face
    value (repeat business with an overpromising source);
A8  adaptive re-execution on source declines vs static plans (§2's
    "dynamic query optimization").
"""

import numpy as np
import pytest

from repro.experiments import ExperimentResult, ndcg, summarize

SEED = 73


# ----------------------------------------------------------------------
# A1: calibration ablation
# ----------------------------------------------------------------------
def run_a1() -> ExperimentResult:
    from repro.data import (
        CorpusGenerator, DomainSpec, FeatureExtractor, TopicSpace, Vocabulary,
    )
    from repro.sim import RngStreams
    from repro.uncertainty import BinnedCalibrator
    from repro.uncertainty.matching import MediaMatcher

    streams = RngStreams(SEED).spawn("a1")
    space = TopicSpace(10)
    vocabulary = Vocabulary(space, streams.spawn("v"), vocabulary_size=400)
    corpus = CorpusGenerator(space, vocabulary, streams.spawn("c"),
                             feature_dimensions=32)
    extractor = FeatureExtractor(32, streams.spawn("f"))
    items = []
    for i in range(4):
        spec = DomainSpec(name=f"d{i}", topic_prior={space.names[i]: 1.0},
                          type_mix={"text": 0.0, "media": 1.0, "compound": 0.0},
                          concentration=0.4)
        items.extend(corpus.generate(spec, 50))
    matcher = MediaMatcher(extractor, "content_metadata")
    rng = np.random.default_rng(SEED)
    pairs = rng.integers(0, len(items), size=(2000, 2))
    scores = np.array([matcher.score(items[i], items[j]) for i, j in pairs])
    labels = np.array([
        int(space.relevance(items[i].latent, items[j].latent) >= 0.75)
        for i, j in pairs
    ])
    half = len(scores) // 2
    calibrator = BinnedCalibrator().fit(scores[:half], labels[:half])

    # Top-k retrieval framing: for query items, rank the pool, take the
    # top 10, and compare the *claimed* expected precision (mean of the
    # confidence values) against the actual precision.
    result = ExperimentResult(
        "A1", "Expected-precision estimates: calibrated vs raw confidences",
        ["confidence", "claimed_precision", "actual_precision", "gap"],
    )
    claimed_raw, claimed_cal, actual_list = [], [], []
    for query_item in items[:40]:
        ranked = sorted(
            (other for other in items if other.item_id != query_item.item_id),
            key=lambda other: -matcher.score(query_item, other),
        )[:10]
        raw = np.array([matcher.score(query_item, other) for other in ranked])
        calibrated = calibrator.predict_many(raw)
        actual = np.array([
            int(space.relevance(query_item.latent, other.latent) >= 0.75)
            for other in ranked
        ])
        claimed_raw.append(float(raw.mean()))
        claimed_cal.append(float(calibrated.mean()))
        actual_list.append(float(actual.mean()))
    actual_mean = float(np.mean(actual_list))
    for name, claims in [("raw scores", claimed_raw),
                         ("calibrated probabilities", claimed_cal)]:
        claimed = float(np.mean(claims))
        result.add_row(name, claimed, actual_mean, abs(claimed - actual_mean))
    result.add_note("calibrated confidences mean what they say; raw scores lie")
    return result


# ----------------------------------------------------------------------
# A2: multi-issue vs price-only negotiation
# ----------------------------------------------------------------------
def run_a2(encounters=60) -> ExperimentResult:
    from repro.negotiation import (
        AlternatingOffersProtocol, Issue, IssueSpace, NegotiationPreferences,
        Negotiator, buyer_utility, linear, seller_utility,
        standard_qos_issue_space,
    )

    rng = np.random.default_rng(SEED)
    protocol = AlternatingOffersProtocol(max_rounds=40)
    from repro.negotiation import Mediator
    from repro.sim import RngStreams

    result = ExperimentResult(
        "A2", "Multi-issue vs price-only negotiation",
        ["deal_space", "deal_rate", "integrative_potential",
         "negotiated_joint_utility", "mediated_joint_utility"],
    )
    spaces = {
        "multi-issue (price+QoS)": standard_qos_issue_space(max_price=10.0),
        "price-only": IssueSpace([Issue("price", 0.0, 10.0)]),
    }
    for label, space in sorted(spaces.items()):
        mediator = Mediator(space, RngStreams(SEED).spawn(f"a2-{label}"),
                            proposals=150)
        deals, joints, mediated, potentials = [], [], [], []
        for __ in range(encounters):
            buyer_weights = {n: float(rng.uniform(0.2, 3.0)) for n in space.names}
            seller_weights = {n: float(rng.uniform(0.2, 3.0)) for n in space.names}
            buyer_u = buyer_utility(space, buyer_weights)
            seller_u = seller_utility(space, seller_weights)
            buyer = Negotiator(
                "b", NegotiationPreferences(buyer_u, 0.25), linear(),
            )
            seller = Negotiator(
                "s", NegotiationPreferences(seller_u, 0.25), linear(),
            )
            # Integrative potential: for additive opposed utilities the max
            # joint utility is at a corner — each issue goes to whoever
            # weights it more.  Price-only is zero-sum (potential = 1).
            best_corner = {}
            for issue in space.issues:
                if buyer_u.weights[issue.name] >= seller_u.weights[issue.name]:
                    best_corner[issue.name] = buyer_u.ideal()[issue.name]
                else:
                    best_corner[issue.name] = seller_u.ideal()[issue.name]
            potentials.append(buyer_u(best_corner) + seller_u(best_corner))
            outcome = protocol.run(buyer, seller)
            deals.append(1.0 if outcome.agreed else 0.0)
            if outcome.agreed:
                joints.append(outcome.joint_utility)
                improved = mediator.improve(outcome.deal, buyer_u, seller_u)
                mediated.append(
                    buyer_u(improved.improved) + seller_u(improved.improved)
                )
        result.add_row(label, summarize(deals).mean,
                       summarize(potentials).mean, summarize(joints).mean,
                       summarize(mediated).mean)
    result.add_note(
        "multi-issue deal spaces have integrative potential > 1; bilateral "
        "bargaining lands on the zero-sum diagonal, and the post-settlement "
        "mediator recovers part of the surplus — price haggling has none"
    )
    return result


# ----------------------------------------------------------------------
# A3: Pareto front vs single scalarization
# ----------------------------------------------------------------------
def run_a3(trials=12) -> ExperimentResult:
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "bench_t5", Path(__file__).parent / "bench_t5_optimizer.py",
    )
    bench_t5 = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_t5)

    from repro.optimizer import ExhaustiveSearch, make_evaluator, pareto_front
    from repro.qos import QoSWeights

    rng = np.random.default_rng(SEED)
    planning_weights = QoSWeights()  # what the system assumes at plan time
    evaluator = make_evaluator(planning_weights, price_sensitivity=0.02)
    regret_scalar, regret_front = [], []
    front_sizes = []
    for __ in range(trials):
        table = bench_t5._random_table(rng, n_jobs=3, n_sources=6)
        search = ExhaustiveSearch().search(table, evaluator)
        front = pareto_front(search.front)
        front_sizes.append(len(front))
        # The user's *true* weights differ from the planning assumption.
        true_weights = QoSWeights(
            response_time=float(rng.uniform(0.2, 3.0)),
            completeness=float(rng.uniform(0.2, 3.0)),
            freshness=float(rng.uniform(0.2, 3.0)),
            correctness=float(rng.uniform(0.2, 3.0)),
            trust=float(rng.uniform(0.2, 3.0)),
        )
        true_evaluator = make_evaluator(true_weights, price_sensitivity=0.02)
        true_utilities = {
            evaluation.plan.signature(): true_evaluator(evaluation.plan).utility
            for evaluation in search.front
        }
        best_true = max(true_utilities.values())
        # Scalarized choice: the single plan optimal under assumed weights.
        regret_scalar.append(
            best_true - true_utilities[search.best.plan.signature()]
        )
        # Front choice: the user picks their favourite from the Pareto menu.
        front_best = max(
            true_utilities[evaluation.plan.signature()] for evaluation in front
        )
        regret_front.append(best_true - front_best)
    result = ExperimentResult(
        "A3", "Pareto menu vs single scalarized plan (user weights unknown)",
        ["strategy", "mean_true_regret"],
    )
    result.add_row("single scalarized plan", summarize(regret_scalar).mean)
    result.add_row("choose from Pareto front", summarize(regret_front).mean)
    result.add_note(
        f"mean front size {np.mean(front_sizes):.1f}; offering the front "
        "lets users with unknown weights recover most of the regret"
    )
    return result


# ----------------------------------------------------------------------
# A4: affinity-weighted vs uniform social fusion
# ----------------------------------------------------------------------
def run_a4() -> ExperimentResult:
    from repro.data import TopicSpace
    from repro.personalization import PersonalizedRanker, UserProfile
    from repro.social import AffineNeighbour, SocialRanker
    from repro.uncertainty import UncertainMatch, UncertainResultSet
    from repro.data.items import InformationItem

    space = TopicSpace(6)
    rng = np.random.default_rng(SEED)
    me = UserProfile(user_id="me", interests=space.basis(space.names[0], 0.9))
    soulmate = UserProfile(user_id="soulmate",
                           interests=space.basis(space.names[0], 0.85))
    stranger = UserProfile(user_id="stranger",
                           interests=space.basis(space.names[4], 0.9))

    def ndcg_for(neighbours):
        ndcgs = []
        for trial in range(30):
            matches = []
            for index in range(10):
                latent = space.sample(rng, concentration=0.4)
                item = InformationItem(item_id=f"i{trial}-{index}",
                                       domain="d", latent=latent)
                matches.append(UncertainMatch(
                    item=item, score=0.5, probability=float(rng.uniform(0.3, 0.9)),
                ))
            results = UncertainResultSet(matches)
            personal = PersonalizedRanker(me, lambda item: item.latent, 0.5)
            ranker = SocialRanker(personal, neighbours, social_weight=0.5)
            ranked = ranker.rerank_items(results)
            ndcgs.append(ndcg([space.relevance(me.interests, item.latent)
                               for item in ranked]))
        return float(np.mean(ndcgs))

    true_affinities = [
        AffineNeighbour("soulmate", 0.9, soulmate),
        AffineNeighbour("stranger", 0.1, stranger),
    ]
    uniform = [
        AffineNeighbour("soulmate", 0.5, soulmate),
        AffineNeighbour("stranger", 0.5, stranger),
    ]
    result = ExperimentResult(
        "A4", "Affinity-weighted vs uniform neighbour fusion",
        ["fusion_weighting", "ndcg_vs_own_taste"],
    )
    result.add_row("affinity-weighted", ndcg_for(true_affinities))
    result.add_row("uniform", ndcg_for(uniform))
    result.add_note("down-weighting low-affinity voices protects relevance")
    return result


# ----------------------------------------------------------------------
# A5: risk-aware vs risk-blind plan choice
# ----------------------------------------------------------------------
def run_a5(trials=300) -> ExperimentResult:
    from repro.uncertainty import risk_averse, risk_neutral

    rng = np.random.default_rng(SEED)
    result = ExperimentResult(
        "A5", "Risk-aware plan choice (averse user, risky vs safe plan)",
        ["chooser", "mean_utility", "p5_utility", "chose_safe_fraction"],
    )
    # Two plans: safe (utility .6 always) vs risky (.95 or .35, 50/50 —
    # higher expected value, much worse downside).
    safe_u, risky_hi, risky_lo = 0.6, 0.95, 0.35
    for label, profile in [("risk-blind (expected value)", risk_neutral()),
                           ("risk-aware (CARA averse)", risk_averse(5.0))]:
        realised, chose_safe = [], 0
        for __ in range(trials):
            safe_value = profile.certainty_equivalent([safe_u], [1.0])
            risky_value = profile.certainty_equivalent(
                [risky_hi, risky_lo], [0.5, 0.5],
            )
            if safe_value >= risky_value:
                chose_safe += 1
                realised.append(safe_u)
            else:
                realised.append(risky_hi if rng.random() < 0.5 else risky_lo)
        realised = np.asarray(realised)
        result.add_row(label, float(realised.mean()),
                       float(np.percentile(realised, 5)), chose_safe / trials)
    result.add_note(
        "the averse chooser gives up a little mean for a far better worst case"
    )
    return result


# ----------------------------------------------------------------------
# A6: MQO sharing vs independent execution
# ----------------------------------------------------------------------
def run_a6() -> ExperimentResult:
    from repro import Consumer, UserProfile, build_agora
    from repro.collaboration import SharedJobExecutor
    from repro.query import ExecutionContext
    from repro.workloads import QueryWorkloadGenerator

    agora = build_agora(seed=SEED, n_sources=8, items_per_source=20,
                        calibration_pairs=150)
    workload = QueryWorkloadGenerator(
        agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("a6"),
    )
    goal = workload.topic_query("regional-history", k=10)
    plans, queries = {}, {}
    for index in range(4):
        profile = UserProfile(
            user_id=f"m{index}",
            interests=agora.topic_space.basis("regional-history", 0.8),
        )
        consumer = Consumer(agora, profile, planner="greedy")
        plan, __, __u = consumer.plan_query(goal)
        plans[f"m{index}"] = plan
        queries[f"m{index}"] = goal
    context = ExecutionContext(registry=agora.registry, oracle=agora.oracle,
                               consumer_id="group")
    shared = SharedJobExecutor(context).execute(plans, queries)
    report = shared.report
    result = ExperimentResult(
        "A6", "Shared MQO execution vs independent execution",
        ["mode", "source_evaluations"],
    )
    result.add_row("independent", report.total_jobs)
    result.add_row("shared (MQO)", report.distinct_jobs)
    result.add_note(
        f"savings ratio {report.savings_ratio:.0%} on a 4-member common goal"
    )
    return result


# ----------------------------------------------------------------------
# A7: trust-discounted beliefs vs face-value advertisements
# ----------------------------------------------------------------------
def run_a7(interactions=15) -> ExperimentResult:
    from repro.optimizer import discount_by_trust
    from repro.qos import QoSVector, QoSWeights, scalarize
    from repro.trust import ReputationSystem

    weights = QoSWeights()
    # Two sources: an honest one and a chronic overpromiser.
    honest_truth = QoSVector(response_time=1.0, completeness=0.7,
                             correctness=0.9, freshness=0.8, trust=1.0)
    liar_truth = QoSVector(response_time=1.5, completeness=0.35,
                           correctness=0.55, freshness=0.5, trust=1.0)
    ads = {
        "honest": honest_truth,
        "liar": QoSVector(response_time=0.8, completeness=0.9,
                          correctness=0.95, freshness=0.9, trust=1.0),
    }
    truths = {"honest": honest_truth, "liar": liar_truth}

    def run_policy(use_reputation):
        reputation = ReputationSystem(decay=0.9)
        utilities = []
        for __ in range(interactions):
            beliefs = {}
            for name, advertised in ads.items():
                trust = reputation.score(name) if use_reputation else 1.0
                beliefs[name] = scalarize(
                    discount_by_trust(advertised, trust), weights,
                )
            chosen = max(sorted(beliefs), key=lambda name: beliefs[name])
            delivered = truths[chosen]
            utilities.append(scalarize(delivered, weights))
            # Compliance signal: how close delivery came to the claim.
            claim = ads[chosen]
            gap = max(0.0, claim.completeness - delivered.completeness) + max(
                0.0, claim.correctness - delivered.correctness,
            )
            reputation.observe(chosen, float(np.clip(1.0 - 2.0 * gap, 0, 1)))
        return utilities

    result = ExperimentResult(
        "A7", "Trust-discounted beliefs vs face-value advertisements",
        ["belief_policy", "utility_first_5", "utility_last_5"],
    )
    for label, use_reputation in [("face value", False),
                                  ("trust-discounted", True)]:
        utilities = run_policy(use_reputation)
        result.add_row(label, float(np.mean(utilities[:5])),
                       float(np.mean(utilities[-5:])))
    result.add_note(
        "reputation lets the consumer escape the overpromiser after a few burns"
    )
    return result


# ----------------------------------------------------------------------
# A8: adaptive re-execution vs static plans under unavailability
# ----------------------------------------------------------------------
def run_a8(queries=10, down_fraction=0.5) -> ExperimentResult:
    from repro import Consumer, UserProfile, build_agora
    from repro.query import (
        AdaptiveExecutor, ExecutionContext, QueryExecutor,
        fallbacks_from_registry,
    )
    from repro.workloads import QueryWorkloadGenerator

    agora = build_agora(seed=SEED, n_sources=10, items_per_source=20,
                        calibration_pairs=150)
    workload = QueryWorkloadGenerator(
        agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("a8"),
    )
    profile = UserProfile(
        user_id="u", interests=agora.topic_space.basis("folk-jewelry", 0.9),
    )
    consumer = Consumer(agora, profile, planner="greedy")
    rng = np.random.default_rng(SEED)
    context = ExecutionContext(
        registry=agora.registry, oracle=agora.oracle,
        calibrator=agora.calibrator if agora.calibrator.is_fitted else None,
        consumer_id="u",
    )
    adaptive = AdaptiveExecutor(
        context, fallbacks_from_registry(agora.registry), max_attempts=4,
    )
    static_sizes, adaptive_sizes, recoveries = [], [], 0
    for index in range(queries):
        topic = agora.topic_space.names[index % 5]
        query = workload.topic_query(topic, k=8)
        plan, __, __u = consumer.plan_query(query)
        # Half the planned sources go dark between planning and execution.
        darkened = []
        for leaf in plan.leaves():
            if rng.random() < down_fraction:
                node = agora.registry.source(leaf.source_id).node_id
                agora.health.set_state(node, False)
                darkened.append(node)
        static = QueryExecutor(context).execute(plan, query)
        static_sizes.append(static.delivered.completeness)
        result = adaptive.execute(plan, query)
        adaptive_sizes.append(result.final.delivered.completeness)
        if result.recovered:
            recoveries += 1
        for node in darkened:
            agora.health.set_state(node, True)
    result = ExperimentResult(
        "A8", "Adaptive re-execution vs static plans (50% planned sources dark)",
        ["executor", "mean_completeness", "recovery_rate"],
    )
    result.add_row("static plan", summarize(static_sizes).mean, "-")
    result.add_row("adaptive re-execution", summarize(adaptive_sizes).mean,
                   recoveries / queries)
    result.add_note(
        "dynamic re-optimization (§2) recovers results a static plan loses"
    )
    return result


ALL_ABLATIONS = [run_a1, run_a2, run_a3, run_a4, run_a5, run_a6, run_a7, run_a8]


@pytest.mark.benchmark(group="ablations")
def test_ablations(benchmark):
    def run_all():
        return [fn() for fn in ALL_ABLATIONS]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for result in results:
        result.print()
    by_id = {result.experiment_id: result for result in results}
    # A1: calibration closes the claimed/actual gap.
    a1 = {row[0]: row for row in by_id["A1"].rows}
    assert a1["calibrated probabilities"][3] < a1["raw scores"][3]
    # A2: multi-issue bargaining has (and mediation captures) surplus.
    a2 = {row[0]: row for row in by_id["A2"].rows}
    assert a2["multi-issue (price+QoS)"][2] > a2["price-only"][2]
    assert a2["price-only"][2] == pytest.approx(1.0)
    assert (a2["multi-issue (price+QoS)"][4]
            > a2["multi-issue (price+QoS)"][3])
    # A3: the Pareto menu reduces true regret.
    a3 = {row[0]: row for row in by_id["A3"].rows}
    assert (a3["choose from Pareto front"][1]
            <= a3["single scalarized plan"][1] + 1e-9)
    # A4: affinity weighting protects relevance.
    a4 = {row[0]: row for row in by_id["A4"].rows}
    assert a4["affinity-weighted"][1] >= a4["uniform"][1]
    # A5: the risk-aware chooser has a better worst case.
    a5 = {row[0]: row for row in by_id["A5"].rows}
    assert (a5["risk-aware (CARA averse)"][2]
            > a5["risk-blind (expected value)"][2])
    # A6: sharing strictly reduces evaluations.
    a6 = {row[0]: row for row in by_id["A6"].rows}
    assert a6["shared (MQO)"][1] < a6["independent"][1]
    # A7: reputation recovers utility over time.
    a7 = {row[0]: row for row in by_id["A7"].rows}
    assert a7["trust-discounted"][2] >= a7["face value"][2]
    # A8: adaptation returns more results under unavailability.
    a8 = {row[0]: row for row in by_id["A8"].rows}
    assert a8["adaptive re-execution"][1] > a8["static plan"][1]


if __name__ == "__main__":
    for fn in ALL_ABLATIONS:
        fn().print()
