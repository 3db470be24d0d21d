"""Tests for the multi-issue offer space."""

import pytest

from repro.negotiation import Issue, IssueSpace, standard_qos_issue_space


class TestIssue:
    def test_invalid_range(self):
        with pytest.raises(ValueError):
            Issue("price", 5.0, 5.0)

    def test_clip(self):
        issue = Issue("price", 0.0, 10.0)
        assert issue.clip(-1.0) == 0.0
        assert issue.clip(11.0) == 10.0
        assert issue.clip(5.0) == 5.0

    def test_normalise(self):
        issue = Issue("price", 0.0, 10.0)
        assert issue.normalise(0.0) == 0.0
        assert issue.normalise(10.0) == 1.0
        assert issue.normalise(2.5) == 0.25


class TestIssueSpace:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IssueSpace([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            IssueSpace([Issue("a", 0, 1), Issue("a", 0, 2)])

    def test_standard_space_issues(self):
        space = standard_qos_issue_space()
        assert "price" in space.names
        assert "completeness" in space.names

    def test_validate_missing_issue(self):
        space = IssueSpace([Issue("a", 0, 1), Issue("b", 0, 1)])
        with pytest.raises(ValueError):
            space.validate({"a": 0.5})

    def test_validate_unknown_issue(self):
        space = IssueSpace([Issue("a", 0, 1)])
        with pytest.raises(ValueError):
            space.validate({"a": 0.5, "z": 0.5})

    def test_validate_out_of_range(self):
        space = IssueSpace([Issue("a", 0, 1)])
        with pytest.raises(ValueError):
            space.validate({"a": 5.0})

    def test_validate_returns_copy(self):
        space = IssueSpace([Issue("a", 0, 1)])
        original = {"a": 0.5}
        validated = space.validate(original)
        validated["a"] = 0.9
        assert original["a"] == 0.5

    def test_blend(self):
        space = IssueSpace([Issue("a", 0, 10)])
        blended = space.blend({"a": 0.0}, {"a": 10.0}, weight=0.3)
        assert blended["a"] == pytest.approx(3.0)

    def test_blend_invalid_weight(self):
        space = IssueSpace([Issue("a", 0, 1)])
        with pytest.raises(ValueError):
            space.blend({"a": 0.0}, {"a": 1.0}, weight=1.5)
