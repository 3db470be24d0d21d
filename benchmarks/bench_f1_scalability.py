"""F1 (§1): scalability of the agora with the number of sources.

Regenerates the F1 figure series: sweep the agora size and report, per
query, the negotiated-plan response time, the number of contracts signed,
overlay message cost of disseminating one registry advertisement by
gossip, and global recall.  Expected shape: gossip messages grow with the
source count; response time stays flat (parallel retrieval, latency of
the slowest contracted source); the relevant pool grows while fixed-k
recall *falls* — the coverage gap that motivates §4's replication and
subcontracting machinery.
"""

try:
    import pytest
except ImportError:  # CLI usage (`python benchmarks/bench_f1_scalability.py`)
    pytest = None  # type: ignore[assignment]

from repro import Consumer, UserProfile, build_agora
from repro.experiments import ExperimentResult, summarize
from repro.net import GossipProtocol
from repro.workloads import QueryWorkloadGenerator

SIZES = [4, 8, 16, 32]


def run_f1(seed=67, queries_per_size=5) -> ExperimentResult:
    result = ExperimentResult(
        "F1", "Scalability with the number of sources (figure series)",
        ["n_sources", "response_time", "contracts_per_query",
         "gossip_messages", "global_recall", "relevant_pool_size"],
    )
    for n_sources in SIZES:
        agora = build_agora(seed=seed, n_sources=n_sources, items_per_source=15,
                            calibration_pairs=200)
        workload = QueryWorkloadGenerator(
            agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("f1-q"),
        )
        profile = UserProfile(
            user_id="f1-user",
            interests=agora.topic_space.basis("folk-jewelry", 0.9),
        )
        consumer = Consumer(agora, profile, planner="trading")

        response_times, contract_counts = [], []
        recalls, pool_sizes = [], []
        for index in range(queries_per_size):
            # Topically routed queries: jewelry material lives in museum
            # and auction collections (untargeted broadcast drowns in
            # corrupted scores from unrelated domains — a §2 pathology
            # studied separately in T1/T2).
            query = workload.topic_query(
                "folk-jewelry", k=10, target_domains=("museum", "auction"),
            )
            outcome = consumer.ask(query)
            response_times.append(outcome.response_time)
            contract_counts.append(len(outcome.contracts))
            relevant_everywhere = set()
            for source in agora.sources.values():
                for item in source.visible_items(agora.now):
                    if agora.oracle.is_relevant(query, item):
                        relevant_everywhere.add(item.item_id)
            denominator = min(len(relevant_everywhere), query.k)

            def recall_of(items):
                found = sum(
                    1 for item in items if agora.oracle.is_relevant(query, item)
                )
                return found / denominator if denominator else 1.0

            recalls.append(recall_of(outcome.results.items()))
            pool_sizes.append(len(relevant_everywhere))
        # Gossip cost: disseminate one advertisement to the whole overlay.
        before = agora.sim.trace.counter("net.messages_sent")
        gossip = GossipProtocol(agora.network, agora.sim.rng.spawn("f1-gossip"),
                                fanout=2, max_rounds=12)
        for node in agora.topology.nodes:
            gossip.subscribe(node, lambda rid, data: None)
            agora.network.register(node, gossip.make_handler(node))
        gossip.start(agora.topology.nodes[0], "new-source-ad", {"id": "x"})
        agora.run(until=agora.now + 40.0)
        gossip_messages = agora.sim.trace.counter("net.messages_sent") - before
        result.add_row(
            n_sources,
            summarize(response_times).mean,
            summarize(contract_counts).mean,
            gossip_messages,
            summarize(recalls).mean,
            summarize(pool_sizes).mean,
        )
    result.add_note(
        "expected shape: gossip cost grows with size; response time stays "
        "flat (parallel retrieval); fixed-k recall falls as relevant "
        "content spreads over more sources — the coverage gap that "
        "motivates replication and subcontracting (§4)"
    )
    return result


if pytest is not None:

    @pytest.mark.benchmark(group="F1")
    def test_f1_scalability(benchmark):
        result = benchmark.pedantic(run_f1, rounds=1, iterations=1)
        result.print()
        rows = {row[0]: row for row in result.rows}
        assert rows[32][3] > rows[4][3]  # gossip cost grows
        # Response time grows sub-linearly: 8x sources < 4x time.
        assert rows[32][1] < 4.0 * max(rows[4][1], 1e-9)
        # The relevant pool grows with the agora while fixed-k recall falls.
        assert rows[32][5] > rows[4][5]
        assert rows[32][4] <= rows[4][4]


if __name__ == "__main__":
    run_f1().print()
