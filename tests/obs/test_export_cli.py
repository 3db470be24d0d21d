"""Tests for the JSONL exporters and the ``python -m repro.obs`` CLI."""

import pytest

from repro.obs import (
    MetricsRegistry,
    RunManifest,
    SpanTracer,
    export_run,
    load_manifest,
    load_metrics_jsonl,
    load_spans_jsonl,
    write_manifest,
    write_metrics_jsonl,
    write_spans_jsonl,
)
from repro.obs.cli import main, render_span_tree


def make_tracer():
    tracer = SpanTracer()
    with tracer.span("query", user="iris") as root:
        with tracer.span("retrieve", source="m1"):
            pass
        root.annotate(outcome="served")
    return tracer


def make_registry():
    registry = MetricsRegistry()
    registry.counter("sim.events").inc(4)
    registry.histogram("query.latency").observe(0.25)
    return registry


def make_manifest(registry, tracer, seed=11):
    return RunManifest(
        seed=seed,
        config_digest=f"cfg-{seed}",
        event_count=4,
        span_count=tracer.span_count,
        metrics=registry.snapshot(),
        labels={"scenario": "unit"},
    )


class TestExporters:
    def test_span_round_trip(self, tmp_path):
        tracer = make_tracer()
        path = tmp_path / "spans.jsonl"
        assert write_spans_jsonl(tracer.spans(), path) == 2
        assert load_spans_jsonl(path) == tracer.spans()

    def test_metrics_round_trip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        assert write_metrics_jsonl(make_registry(), path) == 2
        rows = load_metrics_jsonl(path)
        assert rows[0] == {"kind": "counter", "name": "sim.events", "value": 4.0}
        assert rows[1]["kind"] == "histogram"
        assert rows[1]["summary"]["count"] == 1.0

    def test_manifest_round_trip(self, tmp_path):
        registry, tracer = make_registry(), make_tracer()
        manifest = make_manifest(registry, tracer)
        path = tmp_path / "manifest.json"
        write_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_export_run_writes_full_artifact_set(self, tmp_path):
        registry, tracer = make_registry(), make_tracer()
        written = export_run(
            tmp_path / "run", make_manifest(registry, tracer),
            registry=registry, tracer=tracer,
        )
        assert sorted(written) == ["manifest", "metrics", "spans"]
        assert (tmp_path / "run" / "manifest.json").exists()
        assert (tmp_path / "run" / "metrics.jsonl").exists()
        assert (tmp_path / "run" / "spans.jsonl").exists()

    def test_same_inputs_export_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            registry, tracer = make_registry(), make_tracer()
            export_run(tmp_path / name, make_manifest(registry, tracer),
                       registry=registry, tracer=tracer)
        for artifact in ("manifest.json", "metrics.jsonl", "spans.jsonl"):
            left = (tmp_path / "a" / artifact).read_bytes()
            right = (tmp_path / "b" / artifact).read_bytes()
            assert left == right, artifact


class TestSpanTreeRendering:
    def test_tree_is_indented_and_annotated(self):
        text = render_span_tree(make_tracer().spans())
        lines = text.splitlines()
        assert lines[0].startswith("#0 query")
        assert "{'user'" not in lines[0]  # attrs render as key=value
        assert "user='iris'" in lines[0]
        assert lines[1].startswith("  #1 retrieve")

    def test_limit_reports_remainder(self):
        text = render_span_tree(make_tracer().spans(), limit=1)
        assert text.splitlines()[-1] == "… (1 more spans)"


class TestCli:
    def _export(self, tmp_path, name, seed):
        registry, tracer = make_registry(), make_tracer()
        return export_run(
            tmp_path / name, make_manifest(registry, tracer, seed=seed),
            registry=registry, tracer=tracer,
        )

    def test_summary_prints_provenance(self, tmp_path, capsys):
        written = self._export(tmp_path, "run", seed=11)
        assert main(["summary", written["manifest"]]) == 0
        out = capsys.readouterr().out
        assert "seed:           11" in out
        assert "sim.events = 4" in out
        assert "query.latency" in out

    def test_spans_renders_tree(self, tmp_path, capsys):
        written = self._export(tmp_path, "run", seed=11)
        assert main(["spans", written["spans"]]) == 0
        assert "#0 query" in capsys.readouterr().out

    def test_diff_clean_exits_zero(self, tmp_path, capsys):
        left = self._export(tmp_path, "a", seed=11)
        right = self._export(tmp_path, "b", seed=11)
        assert main(["diff", left["manifest"], right["manifest"]]) == 0
        assert "zero drift" in capsys.readouterr().out

    def test_diff_drift_exits_one(self, tmp_path, capsys):
        left = self._export(tmp_path, "a", seed=11)
        right = self._export(tmp_path, "b", seed=12)
        assert main(["diff", left["manifest"], right["manifest"]]) == 1
        out = capsys.readouterr().out
        assert "drifted field(s)" in out
        assert "seed" in out


class TestCliExitCodes:
    """Usage errors and bad artifact files exit 2, never a traceback."""

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_arguments_exits_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_missing_file_exits_two_with_stderr_message(self, capsys):
        assert main(["summary", "/nonexistent/manifest.json"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text("{not json")
        assert main(["summary", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_schema_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text('{"unexpected": true}')
        assert main(["summary", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_folded_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "profile.folded"
        bad.write_text("stack notanumber\n")
        assert main(["flame", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", ["[]", '"x"'])
    @pytest.mark.parametrize("command", ["summary", "diff", "spans", "slo"])
    def test_non_object_json_exits_two(self, tmp_path, capsys, command, payload):
        bad = tmp_path / "artifact.json"
        bad.write_text(payload + "\n")
        paths = [str(bad), str(bad)] if command == "diff" else [str(bad)]
        assert main([command, *paths]) == 2
        assert "error:" in capsys.readouterr().err


class TestCliProfileCommands:
    def test_flame_renders_ranked_table(self, tmp_path, capsys):
        folded = tmp_path / "profile.folded"
        folded.write_text("root 100\nroot;child 900\n")
        assert main(["flame", str(folded), "--top", "5"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "stack" in lines[0]
        assert "root;child" in lines[1]  # biggest first
        assert "90.0%" in lines[1]

    def test_slo_renders_report(self, tmp_path, capsys):
        from repro.obs import MetricsRegistry as Registry
        from repro.obs import SLOMonitor, SLOSpec, write_slo_report

        registry = Registry()
        registry.counter("ops").inc(100)
        registry.counter("errors").inc(50)
        monitor = SLOMonitor(registry, [SLOSpec(
            name="success", kind="error_budget", objective=0.9,
            bad="errors", total="ops",
        )])
        monitor.sample(5.0)
        path = tmp_path / "slo.json"
        write_slo_report(monitor.evaluate(), path)

        assert main(["slo", str(path)]) == 0
        out = capsys.readouterr().out
        assert "critical" in out
        # Observe-only by default; --strict turns a breach into exit 1.
        assert main(["slo", str(path), "--strict"]) == 1
        assert "critical burn" in capsys.readouterr().err


class TestDivergenceCli:
    def _record_run(self, tmp_path, name, script):
        from repro.obs.flight import FlightRecorder

        flight_dir = tmp_path / name / "flight"
        flight_dir.mkdir(parents=True)
        recorder = FlightRecorder()
        for event in script:
            recorder.record(*event)
        recorder.finalize(flight_dir)
        return tmp_path / name

    def _script(self, n, mutate_at=None):
        script = [(i, float(i), "tick", "demo:proc", None) for i in range(n)]
        if mutate_at is not None:
            seq, time, __, callback, span = script[mutate_at]
            script[mutate_at] = (seq, time, "MUTANT", callback, span)
        return script

    def test_identical_runs_exit_zero(self, tmp_path, capsys):
        a = self._record_run(tmp_path, "a", self._script(6))
        b = self._record_run(tmp_path, "b", self._script(6))
        assert main(["divergence", str(a), str(b)]) == 0
        assert "bitwise-identical" in capsys.readouterr().out

    def test_diverged_runs_exit_one(self, tmp_path, capsys):
        a = self._record_run(tmp_path, "a", self._script(6))
        b = self._record_run(tmp_path, "b", self._script(6, mutate_at=3))
        assert main(["divergence", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out
        assert "kind=MUTANT" in out

    def test_json_output_is_canonical(self, tmp_path, capsys):
        import json

        a = self._record_run(tmp_path, "a", self._script(4))
        b = self._record_run(tmp_path, "b", self._script(4))
        assert main(["divergence", str(a), str(b), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical"] is True

    def test_missing_recording_exits_two(self, tmp_path, capsys):
        a = self._record_run(tmp_path, "a", self._script(4))
        assert main(["divergence", str(a), str(tmp_path / "nope")]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    def test_corrupt_recording_exits_two(self, tmp_path, capsys):
        a = self._record_run(tmp_path, "a", self._script(4))
        b = self._record_run(tmp_path, "b", self._script(4))
        chunk = b / "flight" / "chunk-000000.jsonl"
        chunk.write_text(chunk.read_text().replace('"tick"', '"tock"'))
        assert main(["divergence", str(a), str(b)]) == 2
        assert "digest mismatch" in capsys.readouterr().err


class TestDiffFlightHint:
    def _export_with_flight(self, tmp_path, name, seed):
        from repro.obs.flight import FlightRecorder

        registry, tracer = make_registry(), make_tracer()
        recorder = FlightRecorder()
        recorder.record(0, 1.0, "tick", "demo:proc", None)
        manifest = make_manifest(registry, tracer, seed=seed)
        manifest.flight = recorder.manifest_section()
        return export_run(
            tmp_path / name, manifest, registry=registry, tracer=tracer,
        )

    def test_drifted_diff_mentions_divergence_command(self, tmp_path, capsys):
        left = self._export_with_flight(tmp_path, "a", seed=11)
        right = self._export_with_flight(tmp_path, "b", seed=12)
        assert main(["diff", left["manifest"], right["manifest"]]) == 1
        assert "repro.obs divergence" in capsys.readouterr().out

    def test_clean_diff_has_no_hint(self, tmp_path, capsys):
        left = self._export_with_flight(tmp_path, "a", seed=11)
        right = self._export_with_flight(tmp_path, "b", seed=11)
        assert main(["diff", left["manifest"], right["manifest"]]) == 0
        assert "divergence" not in capsys.readouterr().out

    def test_no_hint_without_flight_sections(self, tmp_path, capsys):
        registry, tracer = make_registry(), make_tracer()
        paths = {}
        for name, seed in (("a", 11), ("b", 12)):
            paths[name] = export_run(
                tmp_path / name, make_manifest(registry, tracer, seed=seed),
                registry=registry, tracer=tracer,
            )
        assert main(["diff", paths["a"]["manifest"], paths["b"]["manifest"]]) == 1
        assert "divergence" not in capsys.readouterr().out
