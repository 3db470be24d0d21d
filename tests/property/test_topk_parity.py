"""Property tests: a source's top-k is *exactly* the pairwise ranking.

``MatchingEngine.rank_block_topk`` scores a block prefix once and sorts
it; a source answer applies a pushed-down ``PruneHint`` as a post-filter
on that list; a plan execution pushes ``Threshold``/``TopK`` cutoffs down
to its sources.  Every result these produce must be bitwise-identical
(ids, order, floats) to the one the ``rank_pairwise`` oracle produces,
cut at k and floor-filtered by hand.

The worlds generated here are deliberately adversarial: zero-term
documents (zero bag vectors), cloned documents (exact duplicate scores),
term-disjoint pools under a high floor (nothing survives), cutoffs
placed exactly on an achieved score (ties at the threshold), and live
ingest interleaved between queries (block caches extended and rebuilt
mid-sequence).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    CompoundObject,
    CorpusGenerator,
    DomainSpec,
    FeatureExtractor,
    TextDocument,
    TopicSpace,
    Vocabulary,
)
from repro.query import (
    ExecutionContext,
    Merge,
    PruneHint,
    Query,
    QueryExecutor,
    QueryKind,
    RelevanceOracle,
    Retrieve,
    standard_plan,
)
from repro.sim import RngStreams
from repro.sources import InformationSource, SourceQuality, SourceRegistry

pytestmark = [pytest.mark.property, pytest.mark.slow]

POOL_SIZE = 48


@pytest.fixture(scope="module")
def topk_world():
    """A fixed mixed-type item pool plus a fitted engine."""
    from repro.uncertainty import build_matching_engine

    streams = RngStreams(seed=606).spawn("topk")
    space = TopicSpace(8)
    vocabulary = Vocabulary(
        space, streams.spawn("v"), vocabulary_size=400, terms_per_topic=50
    )
    corpus = CorpusGenerator(
        space, vocabulary, streams.spawn("c"), feature_dimensions=16
    )
    extractor = FeatureExtractor(16, streams.spawn("f"))

    def spec(name, mix, prior=None):
        return DomainSpec(
            name=name,
            topic_prior=prior or {"folk-jewelry": 0.6, "dance-forms": 0.4},
            type_mix=mix,
            concentration=0.4,
        )

    sample = corpus.generate(
        spec("sample", {"text": 0.0, "media": 1.0, "compound": 0.0}), 40
    )
    engine = build_matching_engine(vocabulary, extractor, lifter_sample=sample)
    pool = corpus.generate(
        spec("pool", {"text": 0.4, "media": 0.4, "compound": 0.2}), POOL_SIZE
    )
    off_topic = corpus.generate(
        spec(
            "pool",
            {"text": 1.0, "media": 0.0, "compound": 0.0},
            prior={"tourism": 1.0},
        ),
        24,
    )
    queries = corpus.generate(
        spec("query", {"text": 0.5, "media": 0.3, "compound": 0.2}), 8
    )
    return engine, pool, off_topic, queries, vocabulary, space


def _clone(doc: TextDocument, index: int) -> TextDocument:
    """Same content under a fresh id — guarantees exact duplicate scores."""
    return TextDocument(
        item_id=f"dup-{index}-{doc.item_id}",
        domain=doc.domain,
        latent=doc.latent,
        terms=dict(doc.terms),
    )


def _zero_doc(index: int) -> TextDocument:
    """A document with an empty term bag (zero text vector)."""
    return TextDocument(
        item_id=f"zero-{index}", domain="pool", latent=np.zeros(2), terms={}
    )


def _probe_query(space, vocabulary, tag, seed, k, length=50, threshold=0.0):
    """A topic-style query with a *stable* evidence item.

    ``Query.evidence_item()`` normally mints a fresh item id per call;
    the autouse ``_reset_ids`` fixture resets that counter per test while
    the module-scoped engine caches per item id — pinning a uniquely
    prefixed reference item keeps ids collision-free across examples.
    """
    rng = np.random.default_rng(seed)
    intent = space.basis("folk-jewelry", weight=0.9)
    terms = vocabulary.sample_terms(intent, rng, length=length)
    probe = TextDocument(
        item_id=f"probe-{tag}", domain="query", latent=intent, terms=terms
    )
    return Query(
        kind=QueryKind.SIMILARITY,
        reference_item=probe,
        k=k,
        threshold=threshold,
        intent_latent=intent,
    )


def _expected(engine, query, candidates, k, floor):
    """The oracle: exhaustive pairwise rank, cut at k, floor-filtered."""
    top = engine.rank_pairwise(query, candidates)[:k]
    if floor > 0.0:
        top = [(item, s) for item, s in top if s >= floor]
    return top


def _assert_bitwise(actual, expected):
    assert [i.item_id for i, __ in actual] == [i.item_id for i, __ in expected]
    assert [s for __, s in actual] == [s for __, s in expected]  # bitwise


class TestTopkPairwiseParity:
    @settings(max_examples=80, deadline=None)
    @given(
        indices=st.lists(
            st.integers(min_value=0, max_value=POOL_SIZE - 1),
            min_size=0, max_size=36,
        ),
        clones=st.lists(
            st.integers(min_value=0, max_value=POOL_SIZE - 1),
            min_size=0, max_size=6,
        ),
        zeros=st.integers(min_value=0, max_value=3),
        query_index=st.integers(min_value=0, max_value=7),
        k=st.integers(min_value=1, max_value=14),
        floor=st.sampled_from([0.0, 0.3, 0.6, 0.97]),
    )
    def test_topk_matches_pairwise_exactly(
        self, topk_world, indices, clones, zeros, query_index, k, floor
    ):
        """Block top-k == pairwise oracle on pools with duplicates/zeros."""
        engine, pool, __, queries, *_ = topk_world
        candidates = [pool[i] for i in indices]
        candidates += [
            _clone(pool[i], j)
            for j, i in enumerate(clones)
            if isinstance(pool[i], TextDocument)
        ]
        candidates += [_zero_doc(j) for j in range(zeros)]
        query = queries[query_index]
        actual = engine.rank_block_topk(
            query, engine.prepare(candidates), k, score_floor=floor
        )
        _assert_bitwise(actual, _expected(engine, query, candidates, k, floor))

    @settings(max_examples=50, deadline=None)
    @given(
        query_index=st.integers(min_value=0, max_value=7),
        cut_position=st.integers(min_value=0, max_value=POOL_SIZE - 1),
        k_offset=st.integers(min_value=-2, max_value=2),
    )
    def test_cutoff_exactly_on_achieved_score(
        self, topk_world, query_index, cut_position, k_offset
    ):
        """Floor and k placed exactly on an achieved (possibly tied) score."""
        engine, pool, __, queries, *_ = topk_world
        query = queries[query_index]
        full = engine.rank_pairwise(query, pool)
        floor = full[cut_position][1]  # cutoff lands exactly on a score
        k = max(1, cut_position + 1 + k_offset)
        actual = engine.rank_block_topk(
            query, engine.prepare(pool), k, score_floor=floor
        )
        _assert_bitwise(actual, _expected(engine, query, pool, k, floor))

    @settings(max_examples=30, deadline=None)
    @given(
        n_candidates=st.integers(min_value=1, max_value=24),
        k=st.integers(min_value=1, max_value=8),
        query_index=st.integers(min_value=0, max_value=7),
    )
    def test_all_below_floor_returns_empty(
        self, topk_world, n_candidates, k, query_index
    ):
        """Term-disjoint pools under a high floor keep nothing."""
        engine, __, off_topic, ___, vocabulary, space = topk_world
        query = _probe_query(
            space, vocabulary, f"ap-{query_index}", seed=100 + query_index,
            k=k, length=40,
        ).evidence_item()
        candidates = off_topic[:n_candidates]
        ranked = engine.rank_block_topk(
            query, engine.prepare(candidates), k, score_floor=0.995
        )
        _assert_bitwise(ranked, _expected(engine, query, candidates, k, 0.995))


def _compound(item_id: str, parts) -> CompoundObject:
    return CompoundObject(
        item_id=item_id, domain="pool", latent=np.zeros(8), parts=list(parts)
    )


class TestCompoundBlockParity:
    @settings(max_examples=60, deadline=None)
    @given(
        indices=st.lists(
            st.integers(min_value=0, max_value=POOL_SIZE - 1),
            min_size=0, max_size=30,
        ),
        empty=st.integers(min_value=0, max_value=3),
        clones=st.lists(
            st.integers(min_value=0, max_value=POOL_SIZE - 1),
            min_size=0, max_size=5,
        ),
        query_parts=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=POOL_SIZE - 1),
                st.sampled_from([0.0, 0.5, 1.0, 2.5]),
            ),
            min_size=0, max_size=4,
        ),
        query_index=st.integers(min_value=-1, max_value=7),
        split=st.integers(min_value=0, max_value=40),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_compound_blocks_match_pairwise(
        self, topk_world, indices, empty, clones, query_parts, query_index,
        split, k,
    ):
        """Part-less compounds, cloned compounds (tied scores) and
        multi-part compound queries, with compounds appended after the
        parts block was built: block ranks == the pairwise oracle."""
        engine, pool, __, queries, *_ = topk_world
        tag = f"{len(indices)}-{empty}-{len(clones)}-{len(query_parts)}-{split}"
        candidates = [pool[i] for i in indices]
        candidates += [_compound(f"nopart-{j}", []) for j in range(empty)]
        candidates += [
            _compound(f"dupc-{j}-{pool[i].item_id}", pool[i].parts)
            if isinstance(pool[i], CompoundObject)
            else _compound(f"wrap-{j}-{pool[i].item_id}", [(pool[i], 1.0)])
            for j, i in enumerate(clones)
        ]
        if query_index < 0:
            weights = [weight for __, weight in query_parts]
            if query_parts and sum(weights) == 0:
                query_parts = [(query_parts[0][0], 1.0)] + query_parts[1:]
            query = _compound(
                f"cq-{tag}-{query_parts}",
                [(pool[i], weight) for i, weight in query_parts],
            )
        else:
            query = queries[query_index]
        block = engine.prepare(candidates[:split])
        block.score(query)  # builds the parts block before the extend
        block.extend(candidates[split:])
        expected = engine.rank_pairwise(query, candidates)
        _assert_bitwise(engine.rank_block(query, block), expected)
        _assert_bitwise(engine.rank_block_topk(query, block, k), expected[:k])


class TestSourceLiveIngestParity:
    @settings(max_examples=25, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10),  # ingest batch size
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=80.0, allow_nan=False),
                st.sampled_from([0.0, 0.4, 0.7]),        # pushed-down floor
            ),
            min_size=1, max_size=5,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
        error_rate=st.sampled_from([0.0, 0.25]),
    )
    def test_answers_match_oracle_over_ingest(
        self, topk_world, batches, seed, error_rate
    ):
        """A hinted source answer is the oracle's top-k, at every step.

        Items are ingested with freshness lag between probes, so the
        source's block cache is extended and rebuilt mid-sequence.  An
        exact source returns the pairwise top-k over its visible items,
        floor-filtered.  A corrupting source ignores the floor: it returns
        the unfiltered top-k's items in order (scores may be noise).
        """
        engine, pool, __, ___, vocabulary, space = topk_world
        query = _probe_query(space, vocabulary, f"live-{seed}", seed=seed, k=5)
        subquery = query.restricted_to("pool")
        source = InformationSource(
            source_id=f"live-{seed}",
            node_id="n0",
            domains=["pool"],
            quality=SourceQuality(
                coverage=1.0, freshness_lag=10.0, error_rate=error_rate,
            ),
            engine=engine,
            streams=RngStreams(seed=seed).spawn("live"),
        )
        cursor = 0
        for size, ingest_now, probe_now, floor in batches:
            chunk = pool[cursor:cursor + size]
            cursor += size
            source.ingest(chunk, now=ingest_now)
            answer = source.answer(
                subquery, now=probe_now,
                prune=PruneHint(score_floor=floor, k_cap=subquery.k),
            )
            visible = source.visible_items(probe_now, "pool")
            assert answer.candidates_scanned == len(visible)
            assert answer.service_time == (
                source.STARTUP_TIME + source.PER_CANDIDATE_TIME * len(visible)
            )
            evidence = subquery.evidence_item()
            if error_rate == 0.0:
                expected = _expected(engine, evidence, visible, subquery.k, floor)
                _assert_bitwise(answer.matches, expected)
            else:
                expected = _expected(engine, evidence, visible, subquery.k, 0.0)
                assert [i.item_id for i, __ in answer.matches] == [
                    i.item_id for i, __ in expected
                ]


class TestPlanExecutionParity:
    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=8),
        tau_choice=st.sampled_from(["zero", "mid", "achieved"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_pushed_down_plan_equals_by_hand(
        self, topk_world, k, tau_choice, seed
    ):
        """Threshold+TopK push-down is lossless.

        The full plan hands its sources a ``PruneHint``; the same leaves
        under a bare ``Merge`` get none, and the threshold and top-k are
        applied to the merged set by hand.  Both deliver bitwise-identical
        results.
        """
        engine, pool, off_topic, __, vocabulary, space = topk_world
        if tau_choice == "achieved":
            base = _probe_query(space, vocabulary, f"plan-{seed}", seed=seed, k=k)
            ranked = engine.rank_pairwise(base.evidence_item(), pool)
            tau = float(np.clip(ranked[min(k, len(ranked) - 1)][1], 0.0, 1.0))
        else:
            tau = {"zero": 0.0, "mid": 0.5}[tau_choice]
        results = {}
        for pushed in (True, False):
            query = _probe_query(
                space, vocabulary, f"plan-{seed}", seed=seed, k=k, threshold=tau
            )
            registry = SourceRegistry()
            leaves = []
            for domain, items in (("pool", pool), ("thesis", off_topic)):
                source = InformationSource(
                    source_id=f"exec-{domain}-{pushed}",
                    node_id=f"n-{domain}",
                    domains=[domain],
                    quality=SourceQuality(
                        coverage=1.0, freshness_lag=0.0, error_rate=0.0,
                    ),
                    engine=engine,
                    streams=RngStreams(seed=seed).spawn(f"exec-{domain}"),
                )
                source.ingest(items, now=0.0, immediate=True)
                registry.register(source)
                leaves.append(
                    Retrieve(
                        subquery=query.restricted_to(domain),
                        source_id=source.source_id,
                    )
                )
            if pushed:
                plan = standard_plan(leaves, k=query.k, tau=query.threshold)
            else:
                plan = Merge(children=leaves)
            executor = QueryExecutor(
                ExecutionContext(
                    registry=registry, oracle=RelevanceOracle(space), now=5.0
                )
            )
            results[pushed] = executor.execute(plan, query)
        pushed, unhinted = results[True], results[False]
        by_hand = unhinted.results.filter_confidence(tau).top_k(k)
        a = [(m.item.item_id, m.score, m.probability) for m in pushed.results.matches]
        b = [(m.item.item_id, m.score, m.probability) for m in by_hand.matches]
        assert a == b  # ids, order, floats — bitwise
        assert pushed.response_time == unhinted.response_time
