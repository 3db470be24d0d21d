"""Tests for table rendering and result collection."""

import pytest

from repro.experiments import ExperimentResult, render_table


class TestRenderTable:
    def test_basic_shape(self):
        table = render_table(["a", "b"], [[1, 2.5], ["x", "y"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0]
        assert "2.500" in lines[2]

    def test_title(self):
        table = render_table(["a"], [[1]], title="T1")
        assert table.startswith("== T1 ==")

    def test_column_alignment(self):
        table = render_table(["col", "x"], [["verylongvalue", 1]])
        header, __, row = table.splitlines()
        assert header.index("|") == row.index("|")

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            render_table([], [])

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])


class TestExperimentResult:
    def test_add_row_and_render(self):
        result = ExperimentResult("T1", "Demo", ["metric", "value"])
        result.add_row("ndcg", 0.75)
        rendered = result.render()
        assert "T1: Demo" in rendered
        assert "0.750" in rendered

    def test_row_width_checked(self):
        result = ExperimentResult("T1", "Demo", ["a", "b"])
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_notes_rendered(self):
        result = ExperimentResult("T1", "Demo", ["a"])
        result.add_row(1)
        result.add_note("shape holds")
        assert "shape holds" in result.render()

    def test_markdown(self):
        result = ExperimentResult("T2", "MD", ["x", "y"])
        result.add_row(1, 2)
        markdown = result.to_markdown()
        assert markdown.startswith("### T2: MD")
        assert "| 1 | 2 |" in markdown
