"""The paper's running example, end to end.

Iris — a researcher of European folk jewelry — queries museums and
auctions, subscribes to automatic feeds, annotates finds into her personal
information base, and shares results with Jason, a colleague working on
traditional dance forms.  Along the way every Open Agora mechanism fires:
uncertain matching, SLA contracts, personalization, socialization via
their friendship, and multi-modal interaction.

Run with:  python examples/iris_scenario.py
"""

from repro import QoSRequirement, build_agora
from repro.social import AffinityIndex, SocialRanker
from repro.sources import PERSONAL_DOMAIN
from repro.workloads import build_iris_scenario


def main() -> None:
    agora = build_agora(seed=2007, n_sources=10, items_per_source=50)
    scenario = build_iris_scenario(agora)
    iris, jason = scenario.iris, scenario.jason

    # ------------------------------------------------------------------
    print("=== 1. Iris queries the agora for folk jewelry ===")
    query = scenario.workload.topic_query(
        "folk-jewelry", k=10, issuer_id="iris",
        requirement=QoSRequirement(min_completeness=0.2),
        target_domains=("museum", "auction", "cultural-org"),
    )
    result = iris.ask(query)
    print(f"{len(result.ranked_items)} results from "
          f"{len(result.contracts)} contracted sources, "
          f"utility {result.utility:.3f}")

    # Save the best finds into her personal information base + annotate.
    base = scenario.personal_base
    finds = result.ranked_items[:3]
    base.save_all(finds, now=agora.now)
    for item in finds:
        record = scenario.annotations.annotate(
            "iris", item, text="candidate for the comparative study",
            comparison_threshold=0.3,
        )
        base.save(record.annotation, now=agora.now)
        print(f"  saved + annotated {item.item_id} "
              f"(standing comparison #{record.standing.standing_id})")
    print(f"Iris's base holds {len(base.visible_items(agora.now))} objects, "
          f"{len(base.annotations(agora.now))} of them her annotations")

    # ------------------------------------------------------------------
    print("\n=== 2. Automatic feeds: new auction material flows in ===")
    agora.start_feeds()
    agora.run(until=agora.now + 60.0)
    hits = iris.feed_inbox() + agora.feeds.drain("iris")
    print(f"{len(hits)} feed hits matched Iris's annotations/subscriptions "
          f"out of {agora.feeds.items_screened} published items")
    for hit in hits[:3]:
        print(f"  feed hit: {hit.match.item.item_id} "
              f"(p={hit.match.probability:.2f}, from {hit.match.source_id})")

    # ------------------------------------------------------------------
    print("\n=== 3. Socialization: Jason's perspective shifts Iris's ranking ===")
    index = AffinityIndex(scenario.profile_store, scenario.social_graph,
                          privacy=scenario.privacy)
    neighbours = index.neighbourhood(iris.active_profile(), k=3)
    print("Iris's visible neighbourhood: "
          f"{[(n.user_id, round(n.affinity, 2)) for n in neighbours]}")
    costume_query = scenario.workload.topic_query(
        "traditional-costume", k=10, issuer_id="iris",
    )
    plain = iris.ask(costume_query, personalize=True)
    social_ranker = SocialRanker(
        iris.personalized_ranker(), neighbours, social_weight=0.5,
    )
    social = iris.ask(costume_query, social_ranker=social_ranker)
    print("top-3 personal:", [i.item_id for i in plain.ranked_items[:3]])
    print("top-3 social:  ", [i.item_id for i in social.ranked_items[:3]])

    # ------------------------------------------------------------------
    print("\n=== 4. Jason browses serendipitously ===")
    from repro.multimodal import Browser, BrowseGraph

    items = []
    for source in agora.sources.values():
        items.extend(source.visible_items(agora.now)[:8])
    graph = BrowseGraph(agora.engine, k_links=4)
    graph.build(items[:60])
    browser = Browser(
        graph, jason.active_profile(), concept_fn=jason.concept_of,
        streams=agora.sim.rng.spawn("jason-browse"), temperature=1.0,
    )
    trail = browser.walk(steps=10)
    domains_seen = [step.item.domain for step in trail]
    print(f"Jason's browse trail crossed domains: {domains_seen}")

    # ------------------------------------------------------------------
    print("\n=== 5. Trust after the session ===")
    ranked = iris.reputation.ranked()[:5]
    for source_id, score in ranked:
        ledger = agora.monitor.ledger(source_id)
        print(f"  {source_id}: trust {score:.2f} "
              f"({ledger.contracts} contracts, breach rate {ledger.breach_rate:.0%})")

    # ------------------------------------------------------------------
    print("\n=== 6. Iris's base is shared with Jason, and no one else ===")
    shared = query.restricted_to(PERSONAL_DOMAIN)
    answer = base.answer(shared, now=agora.now, consumer_id="jason")
    print(f"Jason reads {len(answer.matches)} objects from Iris's base")
    stranger = base.answer(shared, now=agora.now, consumer_id="stranger")
    print(f"a stranger is declined: {stranger.decline_reason}")


if __name__ == "__main__":
    main()
