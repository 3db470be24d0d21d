"""Property tests: batch scoring is *exactly* the pairwise path.

The vectorized kernels promise bitwise float parity, not approximate
agreement: ``prepare(cs).score(q)[i] == score(q, cs[i])`` down to the last
bit, and ``rank`` returns the identical list (same order, same floats,
same tie-breaks) as the one-pair-at-a-time reference ``rank_pairwise``.
Likewise the sorted ``CollectionIndex`` must answer visibility questions
exactly like the legacy linear scan it replaced.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    CorpusGenerator,
    DomainSpec,
    FeatureExtractor,
    InformationItem,
    TextDocument,
    TopicSpace,
    Vocabulary,
)
from repro.query import Query, QueryKind, RelevanceOracle
from repro.sim import RngStreams
from repro.sources import CollectionIndex, InformationSource, SourceQuality
from repro.uncertainty import (
    TermColumns,
    TermIds,
    bag_cosine,
    build_matching_engine,
    compact_cosine,
    sublinear_tf,
)

POOL_SIZE = 60


@pytest.fixture(scope="module")
def parity_world():
    """A fixed mixed-type item pool plus a fitted engine."""
    streams = RngStreams(seed=505).spawn("parity")
    space = TopicSpace(8)
    vocabulary = Vocabulary(
        space, streams.spawn("v"), vocabulary_size=400, terms_per_topic=50
    )
    corpus = CorpusGenerator(
        space, vocabulary, streams.spawn("c"), feature_dimensions=16
    )
    extractor = FeatureExtractor(16, streams.spawn("f"))

    def spec(name, mix):
        return DomainSpec(
            name=name, topic_prior={"folk-jewelry": 0.6, "dance-forms": 0.4},
            type_mix=mix, concentration=0.4,
        )

    sample = corpus.generate(
        spec("sample", {"text": 0.0, "media": 1.0, "compound": 0.0}), 40
    )
    engine = build_matching_engine(vocabulary, extractor, lifter_sample=sample)
    pool = corpus.generate(
        spec("pool", {"text": 0.4, "media": 0.4, "compound": 0.2}), POOL_SIZE
    )
    queries = corpus.generate(
        spec("query", {"text": 0.4, "media": 0.4, "compound": 0.2}), 10
    )
    return engine, pool, queries


class TestBatchPairwiseParity:
    @settings(max_examples=25, deadline=None)
    @given(
        indices=st.lists(
            st.integers(min_value=0, max_value=POOL_SIZE - 1),
            min_size=0, max_size=40,
        ),
        query_index=st.integers(min_value=0, max_value=9),
    )
    def test_rank_matches_pairwise_exactly(
        self, parity_world, indices, query_index
    ):
        engine, pool, queries = parity_world
        candidates = [pool[i] for i in indices]
        query = queries[query_index]
        batch = engine.rank_block(query, engine.prepare(candidates))
        pairwise = engine.rank_pairwise(query, candidates)
        assert len(batch) == len(pairwise) == len(candidates)
        for (item_b, score_b), (item_p, score_p) in zip(batch, pairwise):
            assert item_b.item_id == item_p.item_id
            assert score_b == score_p  # bitwise, not approx

    @settings(max_examples=25, deadline=None)
    @given(
        indices=st.lists(
            st.integers(min_value=0, max_value=POOL_SIZE - 1),
            min_size=0, max_size=40,
        ),
        query_index=st.integers(min_value=0, max_value=9),
    )
    def test_score_many_matches_score_elementwise(
        self, parity_world, indices, query_index
    ):
        engine, pool, queries = parity_world
        candidates = [pool[i] for i in indices]
        query = queries[query_index]
        batch = engine.prepare(candidates).score(query)
        single = np.array([engine.score(query, c) for c in candidates])
        assert np.array_equal(batch, single)

    @settings(max_examples=15, deadline=None)
    @given(
        split=st.integers(min_value=0, max_value=POOL_SIZE),
        limit=st.integers(min_value=0, max_value=POOL_SIZE + 5),
        query_index=st.integers(min_value=0, max_value=9),
    )
    def test_block_prefix_and_extend_parity(
        self, parity_world, split, limit, query_index
    ):
        """An extended block scores prefixes like a freshly prepared one."""
        engine, pool, queries = parity_world
        query = queries[query_index]
        block = engine.prepare(pool[:split])
        block.extend(pool[split:])
        scores = block.score(query, limit=limit)
        expected = engine.prepare(pool[:limit]).score(query)
        assert np.array_equal(scores, expected)


#: Item ids for generated documents.  The autouse fixture resets the
#: library's id counter per test while the module-scoped engine caches
#: per item id, so generated documents need ids of their own.
_DOC_IDS = itertools.count()

#: Term strings outside the generator's ``wNNNNN`` vocabulary: empty,
#: whitespace, NUL, non-ASCII, digits and near-duplicates that sort
#: differently by code point than by any locale.
ODD_TERMS = [
    "", " ", "a", "A", "a\x00", "\x00", "ä", "z", "zz", "Z9", "9", "10",
    "-", "日本", "Ω", "wörd", "w00001", "\U0001f600",
]
odd_term = st.one_of(st.sampled_from(ODD_TERMS), st.text(max_size=4))
weighted_bags = st.dictionaries(
    odd_term,
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=8.0)),
    max_size=10,
)
term_counts = st.dictionaries(odd_term, st.integers(min_value=0, max_value=6), max_size=10)


def _doc(terms) -> TextDocument:
    return TextDocument(
        item_id=f"oov-{next(_DOC_IDS)}", domain="pool", latent=np.zeros(2),
        terms=terms,
    )


class TestTextColumnsParity:
    """The whole-block text kernel is bitwise the dict ``bag_cosine``."""

    @settings(max_examples=80, deadline=None)
    @given(query=weighted_bags, rows=st.lists(weighted_bags, max_size=12))
    def test_term_columns_match_bag_cosine(self, query, rows):
        terms = TermIds()
        compact_rows = [terms.compact(bag) for bag in rows]
        compact_query = terms.compact(query)
        scores = TermColumns(compact_rows).cosine(compact_query)
        expected = np.array([bag_cosine(query, bag) for bag in rows], dtype=float)
        assert scores.tobytes() == expected.tobytes()  # bitwise, signed zeros too
        for bag, compact in zip(rows, compact_rows):
            assert compact_cosine(compact_query, compact) == bag_cosine(query, bag)

    @settings(max_examples=40, deadline=None)
    @given(
        docs=st.lists(term_counts, max_size=14),
        queries=st.lists(term_counts, min_size=1, max_size=3),
        split=st.integers(min_value=0, max_value=14),
    )
    def test_block_text_scores_survive_extend(self, parity_world, docs, queries, split):
        """Scores before and after a live-ingest extend of a built layout."""
        engine = parity_world[0]
        items = [_doc(terms) for terms in docs]
        probes = [_doc(terms) for terms in queries]
        block = engine.prepare(items[:split])
        for probe in probes:  # builds the column layout and score rows
            expected = [
                bag_cosine(sublinear_tf(probe.terms), sublinear_tf(item.terms))
                for item in items[:split]
            ]
            assert block.score(probe).tobytes() == np.array(expected, dtype=float).tobytes()
        block.extend(items[split:])
        for probe in probes:
            expected = [
                bag_cosine(sublinear_tf(probe.terms), sublinear_tf(item.terms))
                for item in items
            ]
            scores = block.score(probe)
            assert scores.tobytes() == np.array(expected, dtype=float).tobytes()
            assert scores.tolist() == [engine.score(probe, item) for item in items]
            # chunk-sized slices of the cached whole-block row
            for start in range(0, len(items), 5):
                assert np.array_equal(
                    block.score_range(probe, start, start + 5), scores[start:start + 5]
                )


latent_component = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-1e-12, max_value=0.0),  # clipped, never rejected
    st.just(-0.0),
)
latents = st.one_of(
    st.lists(latent_component, min_size=10, max_size=10),
    st.just([0.0] * 10),
)


def _oracle_world(intent, threshold=0.75):
    oracle = RelevanceOracle(TopicSpace(10), relevance_threshold=threshold)
    query = Query(
        kind=QueryKind.TOPIC, terms={"t": 1}, intent_latent=np.array(intent, dtype=float)
    )
    return oracle, query


def _latent_items(vectors):
    return [
        InformationItem(item_id=f"o{i}", domain="d", latent=np.array(v, dtype=float))
        for i, v in enumerate(vectors)
    ]


class TestOracleBatchParity:
    """The one-pass oracle audit is bitwise the per-item scalar path."""

    @settings(max_examples=80, deadline=None)
    @given(
        intent=latents,
        vectors=st.lists(latents, max_size=20),
        threshold=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_batched_audit_matches_scalar(self, intent, vectors, threshold):
        oracle, query = _oracle_world(intent, threshold)
        items = _latent_items(vectors)
        relevances = oracle.relevance_many(query, items)
        scalar = np.array([oracle.relevance(query, i) for i in items], dtype=float)
        assert relevances.tobytes() == scalar.tobytes()
        assert oracle.relevant_subset(query, items) == [
            i for i in items if oracle.is_relevant(query, i)
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            [[0.5, 0.5, 0.0]],  # wrong shape
            [[[0.1]] * 10],  # wrong rank
            [[0.1] * 9 + [-1e-6]],  # negative component
            [[0.1] * 9 + [-1e-6], [0.5, 0.5]],  # negative before bad shape
            [[0.5, 0.5], [0.1] * 9 + [-1e-6]],  # bad shape before negative
        ],
    )
    def test_batched_audit_raises_the_scalar_error(self, bad):
        oracle, query = _oracle_world([0.1] * 10)
        items = _latent_items([[0.05 * i for i in range(10)]] + bad + [[0.1] * 10])
        with pytest.raises(ValueError) as scalar:
            [oracle.is_relevant(query, i) for i in items]
        with pytest.raises(ValueError) as batched:
            oracle.relevant_subset(query, items)
        assert str(batched.value) == str(scalar.value)
        with pytest.raises(ValueError) as qos:
            oracle.delivered_qos(query, items[:1], items, 0.0, 0.0)
        assert str(qos.value) == str(scalar.value)


def _item(index: int, domain: str) -> InformationItem:
    return InformationItem(
        item_id=f"idx-{domain}-{index}", domain=domain, latent=np.zeros(2)
    )


ingest_steps = st.lists(
    st.tuples(
        st.sampled_from(["alpha", "beta", "gamma"]),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    min_size=0, max_size=60,
)
probe_times = st.lists(
    st.floats(min_value=-5.0, max_value=110.0, allow_nan=False),
    min_size=1, max_size=8,
)


class TestCollectionIndexEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(steps=ingest_steps, probes=probe_times)
    def test_visible_items_match_linear_scan(self, steps, probes):
        """The index answers exactly like the legacy O(N) list scan."""
        index = CollectionIndex()
        legacy = []  # (item, visible_at) in ingestion order
        for position, (domain, visible_at) in enumerate(steps):
            item = _item(position, domain)
            index.add(item, visible_at)
            legacy.append((item, visible_at))
        for now in probes:
            for domain in [None, "alpha", "beta", "gamma", "missing"]:
                expected = [
                    item for item, visible_at in legacy
                    if visible_at <= now
                    and (domain is None or item.domain == domain)
                ]
                assert index.visible_items(now, domain) == expected
                assert index.visible_count(now, domain) == len(expected)
        for domain in [None, "alpha", "beta", "gamma", "missing"]:
            expected_total = sum(
                1 for item, __ in legacy
                if domain is None or item.domain == domain
            )
            assert index.domain_size(domain) == expected_total
        assert index.domain_size() == len(legacy)

    @settings(max_examples=40, deadline=None)
    @given(steps=ingest_steps)
    def test_interleaved_probes_match_linear_scan(self, steps):
        """Probing between ingests (cache extend/rebuild) stays exact."""
        index = CollectionIndex()
        legacy = []
        for position, (domain, visible_at) in enumerate(steps):
            item = _item(position, domain)
            index.add(item, visible_at)
            legacy.append((item, visible_at))
            now = visible_at  # probe right at the new item's boundary
            expected = [i for i, v in legacy if v <= now]
            assert index.visible_items(now) == expected


class TestSourceAnswerCoherence:
    @settings(max_examples=10, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),   # ingest batch size
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=80.0, allow_nan=False),
            ),
            min_size=1, max_size=5,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_answers_track_pairwise_over_ingest_sequences(
        self, parity_world, batches, seed
    ):
        """Cached blocks stay coherent across arbitrary ingest/now orders.

        After every ingest batch the source must answer with exactly the
        ranking the reference pairwise path produces over the visible
        items — regardless of whether the cached block was reused,
        extended, or rebuilt.  The query's evidence item is minted fresh
        per call (new item id), so equal scores here also demonstrate
        that scores depend only on content, never on cache identity.
        """
        engine, pool, queries = parity_world
        query = _topic_query(engine)
        subquery = query.restricted_to("pool")
        source = InformationSource(
            source_id=f"prop-src-{seed}",
            node_id="n0",
            domains=["pool"],
            quality=SourceQuality(
                coverage=1.0, freshness_lag=10.0, error_rate=0.0,
            ),
            engine=engine,
            streams=RngStreams(seed=seed).spawn("prop"),
        )
        cursor = 0
        for size, ingest_now, probe_now in batches:
            chunk = pool[cursor:cursor + size]
            cursor += size
            source.ingest(chunk, now=ingest_now)
            answer = source.answer(subquery, now=probe_now)
            visible = source.visible_items(probe_now, "pool")
            assert answer.candidates_scanned == len(visible)
            expected = engine.rank_pairwise(
                subquery.evidence_item(), visible
            )[: subquery.k]
            assert [i.item_id for i, __ in answer.matches] == [
                i.item_id for i, __ in expected
            ]
            assert [s for __, s in answer.matches] == [s for __, s in expected]


def _topic_query(engine):
    """A topic query over the parity world's vocabulary."""
    from repro.query import Query, QueryKind

    vocabulary = engine.cross.lifter.vocabulary
    space = vocabulary.topic_space
    rng = np.random.default_rng(99)
    intent = space.basis("folk-jewelry", weight=0.9)
    return Query(
        kind=QueryKind.TOPIC,
        terms=vocabulary.sample_terms(intent, rng, length=50),
        intent_latent=intent,
        k=5,
    )
