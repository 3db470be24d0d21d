"""Tests for the reach measurement (``benchmarks/reach.py``).

A tiny fixture tree (``fixtures/reach_tree``) holds a package and one
consumer script, so no real consumer runs here.  The consumer reaches a
plain function with a nested helper, a decorated ``@property`` and a
``@staticmethod``, and sets one of its config's two fields.
"""

import importlib.util
import io
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
TREE = HERE / "fixtures" / "reach_tree"
_MODULE_PATH = HERE.parents[1] / "benchmarks" / "reach.py"

CONSUMER = (("fixture", ("consumer.py",), 0),)
CONFIG = ("fixpkg.mod", "Config")


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", _MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _report(reach, consumers=CONSUMER, exceptions=()):
    out = io.StringIO()
    status = reach.report(TREE, "fixpkg", consumers, CONFIG, exceptions, out=out)
    return status, out.getvalue()


class TestFunctions:
    def test_enumerates_methods_nested_and_decorated(self, reach):
        found = {f.qualname: f for f in reach.functions(TREE / "src", "fixpkg")}
        assert set(found) == {
            "fixpkg.mod.Widget.__init__",
            "fixpkg.mod.Widget.doubled",
            "fixpkg.mod.Widget.helper",
            "fixpkg.mod.Widget.never",
            "fixpkg.mod.reached",
            "fixpkg.mod.reached.inner",
            "fixpkg.mod.unreached",
            "fixpkg.mod.excused",
        }
        # A decorated function's code starts at its first decorator.
        doubled = found["fixpkg.mod.Widget.doubled"]
        source = (TREE / "src" / doubled.path).read_text().splitlines()
        assert source[doubled.line - 1].strip() == "@property"
        assert found["fixpkg.mod.Widget.doubled"].cls == "fixpkg.mod.Widget"
        assert found["fixpkg.mod.reached.inner"].cls is None


class TestReport:
    def test_lists_unreached_and_unset_and_fails(self, reach):
        status, text = _report(reach)
        assert status == 1
        outside = text.split("unreached, outside the exception table")[1]
        outside = outside.split("unreached, excepted")[0]
        assert "fixpkg.mod.Widget.never" in outside
        assert "fixpkg.mod.unreached" in outside
        assert "fixpkg.mod.excused" in outside
        for reached in ("Widget.__init__", "Widget.doubled", "Widget.helper",
                        "mod.reached ", "reached.inner"):
            assert reached not in text
        fields = text.split("Config fields no consumer sets: 1")[1]
        assert "unused" in fields
        assert "  used" not in fields

    def test_exception_table_moves_entries(self, reach):
        exceptions = (
            ("fixpkg.mod.excused", "kept on purpose"),
            ("field:unused", "kept on purpose too"),
        )
        status, text = _report(reach, exceptions=exceptions)
        assert status == 1  # never and unreached are still outside
        assert "fixpkg.mod.excused (1 lines) -- kept on purpose" in text
        assert "  unused -- kept on purpose too" in text

    def test_everything_excepted_passes(self, reach):
        exceptions = (
            ("fixpkg.mod.Widget.never", "a"),
            ("fixpkg.mod.unreached", "b"),
            ("fixpkg.mod.excused", "c"),
            ("field:unused", "d"),
        )
        status, text = _report(reach, exceptions=exceptions)
        assert status == 0
        assert "outside the exception table: 0 functions" in text

    def test_stale_function_entries_fail(self, reach):
        exceptions = (
            ("fixpkg.mod.Widget.never", "a"),
            ("fixpkg.mod.unreached", "b"),
            ("fixpkg.mod.excused", "c"),
            ("field:unused", "d"),
            ("fixpkg.mod.missing", "names no function"),
            ("fixpkg.mod.reached", "names a reached function"),
        )
        status, text = _report(reach, exceptions=exceptions)
        assert status == 1
        assert "outside the exception table: 0 functions" in text
        stale = text.split("exceptions that cover nothing unreached or unset: 2")[1]
        assert stale.split() == ["fixpkg.mod.missing", "fixpkg.mod.reached"]

    def test_stale_field_entries_fail(self, reach):
        exceptions = (
            ("fixpkg.mod.Widget.never", "a"),
            ("fixpkg.mod.unreached", "b"),
            ("fixpkg.mod.excused", "c"),
            ("field:unused", "d"),
            ("field:used", "a field the consumer sets"),
            ("field:missing", "names no field"),
        )
        status, text = _report(reach, exceptions=exceptions)
        assert status == 1
        stale = text.split("exceptions that cover nothing unreached or unset: 2")[1]
        assert stale.split() == ["field:used", "field:missing"]

    def test_failed_consumer_exits_two(self, reach):
        status, text = _report(reach, consumers=(("fixture", ("consumer.py", "3"), 0),))
        assert status == 2
        assert "consumer 'fixture' exited 3, expected 0" in text

    def test_work_tree_left_unchanged(self, reach):
        before = sorted(p.relative_to(TREE) for p in TREE.rglob("*")
                        if "__pycache__" not in p.parts)
        _report(reach)
        after = sorted(p.relative_to(TREE) for p in TREE.rglob("*")
                       if "__pycache__" not in p.parts)
        assert before == after
