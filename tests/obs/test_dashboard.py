"""Tests for the markdown dashboard renderer."""

from repro.obs import (
    MetricsRegistry,
    RunManifest,
    SpanTracer,
    append_dashboard,
    render_dashboard,
    span_cost_rows,
)


def make_state():
    registry = MetricsRegistry()
    registry.counter("sim.events").inc(7)
    registry.gauge("load").set(0.5)
    registry.histogram("query.latency").observe(0.25)
    clock = [0.0]
    tracer = SpanTracer(clock=lambda: clock[0])
    with tracer.span("query"):
        clock[0] = 1.0
        with tracer.span("retrieve"):
            clock[0] = 3.0
    manifest = RunManifest(
        seed=11, config_digest="cafebabe" * 8, event_count=7,
        span_count=tracer.span_count, metrics=registry.snapshot(),
    )
    return registry, tracer, manifest


class TestRenderDashboard:
    def test_sections_present(self):
        registry, tracer, manifest = make_state()
        text = render_dashboard(
            registry, spans=tracer.spans(), manifest=manifest, title="T2 run"
        )
        assert text.startswith("## T2 run")
        for section in ("### Counters", "### Gauges", "### Distributions",
                        "### Span costs"):
            assert section in text
        assert "- seed: `11`" in text
        assert "| sim.events | 7 |" in text
        assert "| load | 0.5000 |" in text
        assert "| query.latency | 1 |" in text.replace("| 1 | 0.2500", "| 1 |")

    def test_empty_registry_renders_header_only(self):
        text = render_dashboard(MetricsRegistry(), title="Empty")
        assert text == "## Empty\n"

    def test_span_cost_rows_aggregate_by_name(self):
        __, tracer, __manifest = make_state()
        rows = span_cost_rows(tracer.spans())
        assert [row[0] for row in rows] == ["query", "retrieve"]
        query_row = rows[0]
        assert query_row[1] == 1  # count
        assert query_row[2] == 3.0  # total virtual time

    def test_append_dashboard_appends(self, tmp_path):
        registry, tracer, manifest = make_state()
        report = tmp_path / "report.md"
        report.write_text("# Report\n")
        append_dashboard(report, registry, spans=tracer.spans(),
                         manifest=manifest)
        content = report.read_text()
        assert content.startswith("# Report\n")
        assert "## Run dashboard" in content


class TestDivergenceSection:
    def test_divergence_report_rendered_in_code_fence(self):
        from repro.obs import DivergenceReport

        registry, tracer, manifest = make_state()
        report = DivergenceReport(
            kind="event", left_events=9, right_events=9, index=4,
        )
        text = render_dashboard(
            registry, spans=tracer.spans(), manifest=manifest,
            divergence=report,
        )
        assert "### Divergence" in text
        assert "DIVERGED at log entry 4" in text
        assert text.index("### Divergence") < text.index("### Counters")

    def test_section_absent_without_report(self):
        registry, __, __m = make_state()
        assert "### Divergence" not in render_dashboard(registry, title="T")
