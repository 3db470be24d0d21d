"""Cross-cutting property-based tests on core invariants.

These complement the per-module tests: each property here is a contract
several subsystems rely on simultaneously (e.g. collaboration assumes
result-set merging is a semilattice).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import InformationItem
from repro.trust import BetaReputation
from repro.uncertainty import (
    UncertainMatch,
    UncertainResultSet,
    pool_adjacent_violators,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _match(item_id, probability):
    return UncertainMatch(
        item=InformationItem(item_id=item_id, domain="d", latent=np.array([1.0])),
        score=probability, probability=probability,
    )


# Item ids are unique within one result set (a single source never returns
# the same item twice); merging is what resolves cross-set duplicates.
result_sets = st.dictionaries(
    st.integers(0, 20), unit, max_size=15,
).map(lambda pairs: UncertainResultSet(
    _match(f"i{j}", p) for j, p in pairs.items()
))


class TestResultSetSemilattice:
    @given(result_sets)
    def test_merge_idempotent(self, results):
        merged = results.merge(results)
        assert [m.item.item_id for m in merged] == [
            m.item.item_id for m in results
        ]

    @given(result_sets, result_sets)
    def test_merge_commutative(self, a, b):
        ab = a.merge(b)
        ba = b.merge(a)
        assert [m.item.item_id for m in ab] == [m.item.item_id for m in ba]
        assert [m.probability for m in ab] == [m.probability for m in ba]

    @given(result_sets, result_sets, result_sets)
    @settings(max_examples=50)
    def test_merge_associative(self, a, b, c):
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert [m.item.item_id for m in left] == [m.item.item_id for m in right]

    @given(result_sets, result_sets)
    def test_merge_never_lowers_confidence(self, a, b):
        merged = a.merge(b)
        probabilities = {m.item.item_id: m.probability for m in merged}
        for source in (a, b):
            for match in source:
                assert probabilities[match.item.item_id] >= match.probability


class TestReputationBounds:
    @given(st.lists(unit, max_size=60), st.floats(0.5, 1.0, exclude_min=True))
    def test_score_stays_in_open_interval(self, outcomes, decay):
        reputation = BetaReputation(decay=decay)
        for outcome in outcomes:
            reputation.observe(outcome)
        assert 0.0 < reputation.score < 1.0

    @given(st.lists(unit, min_size=1, max_size=60))
    def test_all_good_outcomes_never_lower_score(self, outcomes):
        reputation = BetaReputation()
        previous = reputation.score
        for __ in outcomes:
            reputation.observe(1.0)
            assert reputation.score >= previous - 1e-12
            previous = reputation.score


class TestPAVProperties:
    values = st.lists(unit, min_size=1, max_size=40)

    @given(values)
    def test_idempotent(self, values):
        once = pool_adjacent_violators(values, np.ones(len(values)))
        twice = pool_adjacent_violators(once, np.ones(len(values)))
        np.testing.assert_allclose(once, twice)

    @given(values)
    def test_preserves_weighted_mean(self, values):
        result = pool_adjacent_violators(values, np.ones(len(values)))
        assert float(np.mean(result)) == pytest.approx(float(np.mean(values)))

    @given(values)
    def test_within_value_range(self, values):
        result = pool_adjacent_violators(values, np.ones(len(values)))
        assert result.min() >= min(values) - 1e-9
        assert result.max() <= max(values) + 1e-9
