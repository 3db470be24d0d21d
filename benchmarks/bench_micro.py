"""Micro-benchmarks of hot library operations.

Unlike the T/F experiment regenerators (one-shot tables), these measure
steady-state throughput of the primitives every query touches: matching,
calibration, result merging, plan evaluation, reputation updates and the
event kernel.
"""

import time

import numpy as np
import pytest

from repro.data import (
    CompoundObject,
    CorpusGenerator,
    DomainSpec,
    FeatureExtractor,
    InformationItem,
    TopicSpace,
    Vocabulary,
    iris_domains,
)
from repro.optimizer import (
    CandidateAssignment,
    CandidatePlan,
    ExhaustiveSearch,
    evaluate_plan,
    make_evaluator,
)
from repro.qos import QoSVector, QoSWeights
from repro.query import Query, QueryKind
from repro.sim import RngStreams, Simulator
from repro.sources import InformationSource, SourceQuality
from repro.trust import ReputationSystem
from repro.uncertainty import (
    BinnedCalibrator,
    UncertainEstimate,
    UncertainMatch,
    UncertainResultSet,
    build_matching_engine,
    risk_averse,
)

from tests.property import plan_reference

SEED = 79


@pytest.fixture(scope="module")
def world():
    streams = RngStreams(SEED).spawn("micro")
    space = TopicSpace(10)
    vocabulary = Vocabulary(space, streams.spawn("v"), vocabulary_size=800)
    corpus = CorpusGenerator(space, vocabulary, streams.spawn("c"),
                             feature_dimensions=32)
    extractor = FeatureExtractor(32, streams.spawn("f"))
    spec = DomainSpec(name="museum", topic_prior={"folk-jewelry": 1.0})
    media_spec = DomainSpec(
        name="gallery", topic_prior={"folk-jewelry": 1.0},
        type_mix={"text": 0.0, "media": 1.0, "compound": 0.0},
    )
    items = corpus.generate(spec, 120)
    sample = corpus.generate(media_spec, 60)
    engine = build_matching_engine(vocabulary, extractor, lifter_sample=sample)
    return space, corpus, engine, items


@pytest.mark.benchmark(group="micro")
def test_micro_matching_rank(benchmark, world):
    space, corpus, engine, items = world
    query_item = items[0]
    pool = items[1:101]
    ranked = benchmark(lambda: engine.rank_block(query_item, engine.prepare(pool)))
    assert len(ranked) == 100


@pytest.mark.benchmark(group="micro")
def test_micro_matching_rank_pairwise(benchmark, world):
    """Reference path: one Python ``score`` call per candidate."""
    space, corpus, engine, items = world
    query_item = items[0]
    pool = items[1:101]
    ranked = benchmark(engine.rank_pairwise, query_item, pool)
    assert len(ranked) == 100


@pytest.mark.benchmark(group="micro")
def test_micro_source_answer(benchmark, world):
    """End-to-end source answer over a 100-item visible pool."""
    space, corpus, engine, items = world
    streams = RngStreams(SEED).spawn("micro-source")
    source = InformationSource(
        source_id="bench-src",
        node_id="n0",
        domains=["museum"],
        quality=SourceQuality(coverage=1.0, freshness_lag=0.0, error_rate=0.0),
        engine=engine,
        streams=streams,
    )
    source.ingest(items[1:101], now=0.0, immediate=True)
    rng = np.random.default_rng(SEED)
    intent = space.basis("folk-jewelry", weight=0.9)
    vocabulary = engine.cross.lifter.vocabulary
    query = Query(
        kind=QueryKind.TOPIC,
        terms=vocabulary.sample_terms(intent, rng, length=60),
        intent_latent=intent,
        k=10,
    )
    subquery = query.restricted_to("museum")
    answer = benchmark(source.answer, subquery, 0.0)
    assert not answer.declined
    assert answer.candidates_scanned == 100


@pytest.fixture(scope="module")
def skewed_pool(world):
    """A skewed retrieval pool: on-topic items among an off-topic majority.

    A minority of on-topic museum items buried in an off-topic tail, the
    shape of a source that holds mostly content irrelevant to any one
    query.
    """
    space, corpus, engine, items = world
    text_only = {"text": 1.0, "media": 0.0, "compound": 0.0}
    on_spec = DomainSpec(
        name="museum", topic_prior={"folk-jewelry": 1.0},
        type_mix=text_only, concentration=0.3,
    )
    off_spec = DomainSpec(
        name="museum",
        topic_prior={"academic-theses": 0.7, "dance-forms": 0.3},
        type_mix=text_only, concentration=0.3,
    )
    on_topic = corpus.generate(on_spec, 80)
    off_topic = corpus.generate(off_spec, 320)
    # On-topic items interleaved into the front of the stream, then the
    # long off-topic tail.
    pool = [x for pair in zip(off_topic[:80], on_topic) for x in pair]
    pool.extend(off_topic[80:])
    rng = np.random.default_rng(SEED)
    intent = space.basis("folk-jewelry", weight=0.9)
    vocabulary = engine.cross.lifter.vocabulary
    query = Query(
        kind=QueryKind.TOPIC,
        terms=vocabulary.sample_terms(intent, rng, length=60),
        intent_latent=intent,
        k=10,
    )
    return engine, pool, query


@pytest.mark.benchmark(group="micro")
def test_micro_rank_block_exhaustive(benchmark, skewed_pool):
    """Full rank over the skewed pool (block prepared once)."""
    engine, pool, query = skewed_pool
    block = engine.prepare(pool)
    evidence = query.evidence_item()
    ranked = benchmark(engine.rank_block, evidence, block)
    assert len(ranked) == len(pool)


#: text-only pool size for the column text kernel series
TEXT_POOL_SIZE = 3024


@pytest.fixture(scope="module")
def text_pool(world):
    """3,024 text documents and a topic query over the same vocabulary."""
    space, corpus, engine, items = world
    spec = DomainSpec(
        name="museum", topic_prior={"folk-jewelry": 0.7, "dance-forms": 0.3},
        type_mix={"text": 1.0, "media": 0.0, "compound": 0.0},
    )
    pool = corpus.generate(spec, TEXT_POOL_SIZE)
    rng = np.random.default_rng(SEED)
    intent = space.basis("folk-jewelry", weight=0.8)
    vocabulary = engine.cross.lifter.vocabulary
    query = Query(
        kind=QueryKind.TOPIC,
        terms=vocabulary.sample_terms(intent, rng, length=60),
        intent_latent=intent,
        k=10,
    )
    return engine, pool, query


def _best_of(run, repeats):
    """Fastest of ``repeats`` wall-clock runs of ``run()``, in seconds."""
    best = float("inf")
    for __ in range(repeats):
        started = time.perf_counter()  # agora: ignore[AGR001] measures real runtime
        run()
        elapsed = time.perf_counter() - started  # agora: ignore[AGR001] measures real runtime
        best = min(best, elapsed)
    return best


@pytest.mark.benchmark(group="micro")
def test_micro_rank_block_text(benchmark, text_pool):
    """Whole-block column text kernel over 3,024 texts.

    Every call ranks a freshly minted evidence item, as each source
    answer does, so the block's per-query score row is computed anew
    each time.  Gate: at least 5x faster than the per-candidate
    reference ``rank_pairwise``, with the identical ranking.
    """
    engine, pool, query = text_pool
    block = engine.prepare(pool)

    def run():
        return engine.rank_block(query.evidence_item(), block)

    ranked = benchmark(run)
    assert len(ranked) == TEXT_POOL_SIZE
    evidence = query.evidence_item()
    assert engine.rank_block(evidence, block) == engine.rank_pairwise(evidence, pool)
    block_s = _best_of(run, 5)
    pairwise_s = _best_of(lambda: engine.rank_pairwise(query.evidence_item(), pool), 3)
    assert pairwise_s >= 5.0 * block_s, (
        f"rank_block {block_s * 1e3:.1f} ms vs rank_pairwise {pairwise_s * 1e3:.1f} ms"
    )


@pytest.mark.benchmark(group="micro")
def test_micro_calibrator_predict(benchmark):
    rng = np.random.default_rng(SEED)
    scores = rng.random(2000)
    labels = (rng.random(2000) < scores**2).astype(int)
    calibrator = BinnedCalibrator().fit(scores, labels)
    probe = rng.random(1000)
    out = benchmark(calibrator.predict_many, probe)
    assert out.shape == (1000,)


@pytest.mark.benchmark(group="micro")
def test_micro_result_merge(benchmark):
    rng = np.random.default_rng(SEED)

    def make_set(offset):
        matches = [
            UncertainMatch(
                item=InformationItem(item_id=f"i{offset + j}", domain="d",
                                     latent=np.array([1.0])),
                score=float(rng.random()),
                probability=float(rng.random()),
            )
            for j in range(200)
        ]
        return UncertainResultSet(matches)

    a, b = make_set(0), make_set(100)  # 50% overlap
    merged = benchmark(a.merge, b)
    assert len(merged) == 300


@pytest.mark.benchmark(group="micro")
def test_micro_plan_evaluation(benchmark):
    query = Query(
        kind=QueryKind.TOPIC, terms={"w00001": 3}, k=10,
        intent_latent=np.array([1.0]),
    )
    rng = np.random.default_rng(SEED)
    assignments = {}
    for job in range(5):
        subquery = query.restricted_to(f"d{job}")
        assignments[subquery.subquery_id] = [
            CandidateAssignment(
                subquery=subquery, source_id=f"s{job}",
                expected=QoSVector(response_time=float(rng.uniform(0.1, 5)),
                                   completeness=float(rng.uniform(0.2, 1))),
                cost=UncertainEstimate(mean=1.0, std=0.2, low=0, high=5),
                breach_risk=float(rng.uniform(0, 0.4)),
            )
        ]
    plan = CandidatePlan(assignments)
    evaluation = benchmark(evaluate_plan, plan, QoSWeights())
    assert 0.0 <= evaluation.utility <= 1.0


@pytest.mark.benchmark(group="micro")
def test_micro_exhaustive_search(benchmark):
    """The 4**5 = 1,024-plan space of a similarity search over five domains."""
    query = Query(
        kind=QueryKind.TOPIC, terms={"w00001": 3}, k=10,
        intent_latent=np.array([1.0]),
    )
    rng = np.random.default_rng(SEED)
    table = {}
    for job in range(5):
        subquery = query.restricted_to(f"d{job}")
        candidates = []
        for index in range(4):
            response_time = float(rng.uniform(0.1, 5))
            candidates.append(CandidateAssignment(
                subquery=subquery, source_id=f"s{index}",
                expected=QoSVector(
                    response_time=response_time,
                    completeness=float(rng.uniform(0.2, 1)),
                    freshness=float(rng.uniform(0.3, 1)),
                    correctness=float(rng.uniform(0.5, 1)),
                    trust=float(rng.uniform(0.3, 1)),
                ),
                cost=UncertainEstimate(mean=response_time, std=0.3 * response_time,
                                       low=0.0, high=4 * response_time),
                breach_risk=float(rng.uniform(0, 0.4)),
            ))
        table[subquery.subquery_id] = candidates
    evaluator = make_evaluator(QoSWeights(), price_sensitivity=0.02,
                               risk_profile=risk_averse())
    result = benchmark(ExhaustiveSearch().search, table, evaluator)
    best, front, explored = plan_reference.exhaustive_search(table, evaluator)
    fingerprint = plan_reference.fingerprint
    assert result.explored == explored == 1024
    assert fingerprint(result.best) == fingerprint(best)
    assert [fingerprint(e) for e in result.front] == [fingerprint(e) for e in front]


@pytest.mark.benchmark(group="micro")
def test_micro_reputation_updates(benchmark):
    rng = np.random.default_rng(SEED)
    outcomes = rng.random(1000)

    def run():
        system = ReputationSystem()
        for index, outcome in enumerate(outcomes):
            system.observe(f"s{index % 20}", float(outcome))
        return system

    system = benchmark(run)
    assert len(system.ranked()) == 20


@pytest.mark.benchmark(group="micro")
def test_micro_event_kernel(benchmark):
    def run():
        sim = Simulator(seed=1)
        counter = {"n": 0}

        def tick():
            counter["n"] += 1
            if counter["n"] < 5000:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run()
        return counter["n"]

    assert benchmark(run) == 5000


@pytest.mark.benchmark(group="micro")
def test_micro_event_kernel_flight(benchmark):
    """The dispatch loop with the flight recorder streaming per-event."""
    from repro.obs.flight import FlightRecorder

    def run():
        flight = FlightRecorder()
        sim = Simulator(seed=1, flight=flight)
        counter = {"n": 0}

        def tick():
            counter["n"] += 1
            if counter["n"] < 5000:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run()
        return counter["n"], flight.record_count

    events, recorded = benchmark(run)
    assert events == 5000
    assert recorded == 5000


@pytest.mark.benchmark(group="micro")
def test_micro_corpus_generate(benchmark):
    """Set-up cost: a fresh generator's 400 items of the auction domain.

    Auction is the compound-heavy Iris domain (half its items are
    catalogs of 2–4 parts), so this exercises every item kind.
    """
    space = TopicSpace(10)
    vocabulary = Vocabulary(space, RngStreams(SEED).spawn("corpus-v"))
    auction = next(spec for spec in iris_domains() if spec.name == "auction")

    def run():
        corpus = CorpusGenerator(space, vocabulary, RngStreams(SEED).spawn("corpus"))
        return corpus.generate(auction, 400)

    items = benchmark(run)
    assert len(items) == 400
    assert any(isinstance(item, CompoundObject) for item in items)


@pytest.mark.benchmark(group="micro")
def test_micro_reference_kernel(benchmark):
    """Machine-speed yardstick: seeded Python and numpy work, no repo code.

    ``check_regression.py`` divides every benchmark's current/baseline
    ratio by this one's, so the gate compares code, not hosts.
    """
    rng = np.random.default_rng(SEED)
    matrix = rng.random((64, 64)) / 64.0
    keys = rng.integers(0, 512, size=4000).tolist()

    def run():
        counts = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        ranked = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
        product = matrix
        for __ in range(16):
            product = np.tanh(product @ matrix + 0.5)
        return len(ranked), float(product.sum())

    distinct, total = benchmark(run)
    assert distinct == len(set(keys))
    assert np.isfinite(total)
