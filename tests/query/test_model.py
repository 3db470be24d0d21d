"""Tests for the query model and decomposition."""

import numpy as np
import pytest

from repro.data import TextDocument
from repro.qos import QoSRequirement
from repro.query import Query, QueryKind, decompose

from tests.conftest import make_topic_query


def _ref_item():
    return TextDocument(
        item_id="ref", domain="museum", latent=np.array([1.0, 0.0]),
        terms={"w00001": 2},
    )


class TestQueryValidation:
    def test_similarity_needs_reference(self):
        with pytest.raises(ValueError):
            Query(kind=QueryKind.SIMILARITY)

    def test_topic_needs_terms(self):
        with pytest.raises(ValueError):
            Query(kind=QueryKind.TOPIC)

    def test_hybrid_needs_both(self):
        with pytest.raises(ValueError):
            Query(kind=QueryKind.HYBRID, reference_item=_ref_item())

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            Query(kind=QueryKind.SIMILARITY, reference_item=_ref_item(), k=0)

    def test_query_ids_unique(self):
        a = Query(kind=QueryKind.SIMILARITY, reference_item=_ref_item())
        b = Query(kind=QueryKind.SIMILARITY, reference_item=_ref_item())
        assert a.query_id != b.query_id


class TestEvidence:
    def test_similarity_evidence_is_reference(self):
        query = Query(kind=QueryKind.SIMILARITY, reference_item=_ref_item())
        assert query.evidence_item() is query.reference_item

    def test_topic_evidence_is_synthetic_doc(self, topic_space, vocabulary):
        query = make_topic_query(topic_space, vocabulary, "folk-jewelry")
        evidence = query.evidence_item()
        assert isinstance(evidence, TextDocument)
        assert evidence.terms == query.terms


class TestTargeting:
    def test_none_targets_everything(self):
        query = Query(kind=QueryKind.SIMILARITY, reference_item=_ref_item())
        assert query.targets("anything")

    def test_restricted_targets(self):
        query = Query(
            kind=QueryKind.SIMILARITY, reference_item=_ref_item(),
            target_domains=("museum",),
        )
        assert query.targets("museum")
        assert not query.targets("auction")


class TestDecomposition:
    def test_decompose_all_domains(self):
        query = Query(kind=QueryKind.SIMILARITY, reference_item=_ref_item())
        subqueries = decompose(query, ["auction", "museum"])
        assert [s.domain for s in subqueries] == ["auction", "museum"]

    def test_decompose_respects_targets(self):
        query = Query(
            kind=QueryKind.SIMILARITY, reference_item=_ref_item(),
            target_domains=("museum",),
        )
        subqueries = decompose(query, ["auction", "museum", "thesis"])
        assert [s.domain for s in subqueries] == ["museum"]

    def test_decompose_dedupes_domains(self):
        query = Query(kind=QueryKind.SIMILARITY, reference_item=_ref_item())
        subqueries = decompose(query, ["museum", "museum"])
        assert len(subqueries) == 1

    def test_subquery_inherits_parameters(self):
        query = Query(kind=QueryKind.SIMILARITY, reference_item=_ref_item(), k=7)
        subquery = query.restricted_to("museum")
        assert subquery.k == 7
        assert subquery.parent is query
        assert "museum" in subquery.subquery_id

    def test_with_requirement_copies(self):
        query = Query(kind=QueryKind.SIMILARITY, reference_item=_ref_item())
        stricter = query.with_requirement(QoSRequirement(min_trust=0.9))
        assert stricter.requirement.min_trust == 0.9
        assert query.requirement.min_trust is None
