"""Tests for the plan algebra."""

import numpy as np
import pytest

from repro.data import TextDocument
from repro.query import Merge, Query, QueryKind, Retrieve, TopK, standard_plan


def _subquery(domain="museum"):
    query = Query(
        kind=QueryKind.SIMILARITY,
        reference_item=TextDocument(
            item_id="ref", domain="museum", latent=np.array([1.0]),
            terms={"w00001": 1},
        ),
    )
    return query.restricted_to(domain)


class TestNodes:
    def test_retrieve_job_id(self):
        node = Retrieve(_subquery(), "s1")
        assert node.job_id.endswith("museum@s1")

    def test_merge_needs_children(self):
        with pytest.raises(ValueError):
            Merge(children=[])

    def test_topk_validates_k(self):
        with pytest.raises(ValueError):
            TopK(Retrieve(_subquery(), "s1"), k=0)


class TestTraversal:
    def test_leaves_in_order(self):
        leaves = [Retrieve(_subquery(), f"s{i}") for i in range(3)]
        plan = TopK(Merge(children=list(leaves)), k=5)
        assert plan.leaves() == leaves


class TestStandardPlan:
    def test_shape_without_threshold(self):
        plan = standard_plan([Retrieve(_subquery(), "s1")], k=5)
        assert isinstance(plan, TopK)
        assert isinstance(plan.child, Merge)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            standard_plan([], k=5)
