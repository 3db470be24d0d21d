"""Tests for the causal span tracer."""

import pytest

from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    SpanTracer,
    ancestors,
    child_map,
    derive_trace_id,
    descendants_of,
    span_index,
)


class TestSpanBasics:
    def test_nesting_builds_parent_chain(self):
        tracer = SpanTracer()
        with tracer.span("query") as root:
            with tracer.span("retrieve") as leaf:
                pass
        assert root.parent_id is None
        assert leaf.parent_id == root.span_id

    def test_span_ids_are_sequential(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.span_id for s in tracer.spans()] == [0, 1]

    def test_clock_stamps_start_and_end(self):
        now = [1.5]
        tracer = SpanTracer(clock=lambda: now[0])
        with tracer.span("work") as span:
            now[0] = 4.0
        assert span.start == 1.5
        assert span.end == 4.0
        assert span.duration == 2.5

    def test_error_sets_status_and_closes_span(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("broken") as span:
                raise RuntimeError("boom")
        assert span.status == "error"
        assert span.end is not None
        assert tracer.current_id is None

    def test_annotate_and_event(self):
        tracer = SpanTracer()
        with tracer.span("parent") as span:
            span.annotate(outcome="served", k=10)
            mark = tracer.event("net.drop", node="n1")
        assert span.attributes == {"outcome": "served", "k": 10}
        assert mark.parent_id == span.span_id
        assert mark.end == mark.start

    def test_round_trip_through_dict(self):
        span = Span(span_id=3, parent_id=1, name="x", start=0.5, end=1.5,
                    status="error", attributes={"a": 1})
        assert Span.from_dict(span.to_dict()) == span


class TestDisabledTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = SpanTracer(enabled=False)
        with tracer.span("a") as span:
            tracer.event("b")
        assert span is NULL_SPAN
        assert tracer.spans() == []
        assert tracer.span_count == 0

    def test_null_span_annotate_is_inert(self):
        NULL_SPAN.annotate(poison=True)
        assert NULL_SPAN.attributes == {}

    def test_shared_null_tracer_is_disabled(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything") as span:
            assert span is NULL_SPAN


class TestResumeRelease:
    def test_resume_reparents_onto_scheduling_span(self):
        tracer = SpanTracer()
        with tracer.span("root") as root:
            scheduled_from = tracer.current_id
        # Later, "the kernel" runs the callback under the saved context.
        tracer.resume(scheduled_from)
        with tracer.span("callback") as callback:
            pass
        tracer.release()
        assert callback.parent_id == root.span_id
        assert tracer.current_id is None

    def test_release_restores_interrupted_stack(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            with tracer.span("detour") as detour:
                pass
            tracer.resume(detour.span_id)
            assert tracer.current_id == detour.span_id
            tracer.release()
            assert tracer.current_id == outer.span_id

    def test_max_spans_cap_drops_and_counts(self):
        tracer = SpanTracer(max_spans=2)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        with tracer.span("c") as dropped:
            with tracer.span("d"):
                pass
        assert dropped is NULL_SPAN
        assert tracer.span_count == 2
        assert tracer.dropped_spans == 2


class TestTreeHelpers:
    def _forest(self):
        tracer = SpanTracer()
        with tracer.span("q0") as q0:
            with tracer.span("merge"):
                with tracer.span("retrieve"):
                    pass
        with tracer.span("q1"):
            pass
        return tracer.spans(), q0

    def test_child_map_groups_roots_under_none(self):
        spans, __ = self._forest()
        children = child_map(spans)
        assert [s.name for s in children[None]] == ["q0", "q1"]
        assert [s.name for s in children[0]] == ["merge"]

    def test_ancestors_walks_to_root(self):
        spans, __ = self._forest()
        index = span_index(spans)
        retrieve = next(s for s in spans if s.name == "retrieve")
        assert [a.name for a in ancestors(retrieve, index)] == ["merge", "q0"]

    def test_descendants_of_root(self):
        spans, q0 = self._forest()
        assert {s.name for s in descendants_of(q0.span_id, spans)} == {
            "merge", "retrieve",
        }

    def test_orphan_parent_treated_as_root(self):
        orphan = Span(span_id=9, parent_id=777, name="orphan", start=0.0)
        children = child_map([orphan])
        assert children[None] == [orphan]


class TestDeriveTraceId:
    def test_deterministic_in_seed_and_scope(self):
        assert derive_trace_id(11) == derive_trace_id(11)
        assert derive_trace_id(11) != derive_trace_id(12)
        assert derive_trace_id(11, scope="a") != derive_trace_id(11, scope="b")

    def test_short_hex(self):
        trace_id = derive_trace_id(7)
        assert len(trace_id) == 16
        int(trace_id, 16)  # valid hex
