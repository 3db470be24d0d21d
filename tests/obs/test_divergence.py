"""Tests for the first-divergence debugger."""

import json

import pytest

from repro.obs.divergence import (
    align_runs,
    discover_recording,
    find_divergence,
    load_recording,
    render_alignment,
    render_report,
)
from repro.obs.export import write_spans_jsonl
from repro.obs.flight import FOOTER_FILE, FlightRecorder
from repro.obs.spans import SpanTracer


def _events(n, mutate=None):
    """A deterministic event script; ``mutate`` patches one event tuple."""
    script = [
        (index, float(index), "tick", "demo:proc", None) for index in range(n)
    ]
    if mutate is not None:
        position, patch = mutate
        script[position] = patch(script[position])
    return script


def _write(directory, script, interval=4, draws=None):
    """Record ``script`` into ``directory``; optional per-event draw script.

    ``draws[i]`` is ``(total, {stream: count})`` applied *before* event i
    is recorded, emulating the callback's RNG consumption.
    """
    recorder = FlightRecorder(checkpoint_interval=interval)
    state = {"total": 0, "streams": {}}
    recorder.bind_rng(
        draw_total=lambda: state["total"],
        draw_counts=lambda: dict(state["streams"]),
    )
    recorder.start()
    for index, event in enumerate(script):
        if draws is not None:
            state["total"], state["streams"] = draws[index]
        recorder.record(*event)
    recorder.finalize(directory)
    return recorder


class TestLoadRecording:
    def test_round_trip(self, tmp_path):
        _write(tmp_path, _events(10))
        recording = load_recording(tmp_path)
        assert recording.events == 10
        # 10 events + 2 checkpoint lines at interval 4
        assert len(recording.entries) == 12
        assert recording.checkpoint_positions == [4, 9]

    def test_corrupt_chunk_raises(self, tmp_path):
        _write(tmp_path, _events(6))
        chunk = tmp_path / "chunk-000000.jsonl"
        chunk.write_text(chunk.read_text().replace('"tick"', '"tock"'))
        with pytest.raises(ValueError, match="digest mismatch"):
            load_recording(tmp_path)

    def test_missing_footer_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no footer.json"):
            load_recording(tmp_path)

    def test_bad_version_raises(self, tmp_path):
        _write(tmp_path, _events(2))
        footer = json.loads((tmp_path / FOOTER_FILE).read_text())
        footer["version"] = "repro.flight/99"
        (tmp_path / FOOTER_FILE).write_text(json.dumps(footer))
        with pytest.raises(ValueError, match="unsupported"):
            load_recording(tmp_path)

    def test_attaches_sibling_spans(self, tmp_path):
        run = tmp_path / "run"
        flight = run / "flight"
        flight.mkdir(parents=True)
        _write(flight, _events(2))
        tracer = SpanTracer()
        with tracer.span("root"):
            pass
        write_spans_jsonl(tracer.spans(), run / "spans.jsonl")
        recording = load_recording(flight)
        assert recording.spans is not None
        assert recording.spans[0].name == "root"


class TestDiscoverRecordings:
    def test_recording_directory_itself(self, tmp_path):
        _write(tmp_path, _events(3))
        assert discover_recording(tmp_path).events == 3

    def test_run_directory_with_flight_inside(self, tmp_path):
        flight = tmp_path / "flight"
        flight.mkdir()
        _write(flight, _events(3))
        recording = discover_recording(tmp_path)
        assert recording.path == str(flight)
        assert recording.events == 3

    def test_no_recordings_raise(self, tmp_path):
        with pytest.raises(ValueError, match="no flight recording"):
            discover_recording(tmp_path)


class TestFindDivergence:
    def test_identical(self, tmp_path):
        _write(tmp_path / "a", _events(20))
        _write(tmp_path / "b", _events(20))
        report = find_divergence(
            load_recording(tmp_path / "a"), load_recording(tmp_path / "b")
        )
        assert report.identical
        assert "identical" in render_report(report)

    def _first_mismatch_by_linear_scan(self, left, right):
        """Ground truth: zip-scan every entry, no checkpoint shortcuts."""
        for position, (a, b) in enumerate(zip(left.entries, right.entries)):
            if a != b:
                return position
        return None

    @pytest.mark.parametrize("position", [0, 3, 17, 40, 61])
    def test_binary_search_matches_linear_scan(self, tmp_path, position):
        mutate = (position, lambda e: (e[0], e[1], "MUTANT", e[3], e[4]))
        _write(tmp_path / "a", _events(64), interval=4)
        _write(tmp_path / "b", _events(64, mutate=mutate), interval=4)
        left = load_recording(tmp_path / "a")
        right = load_recording(tmp_path / "b")
        report = find_divergence(left, right)
        assert report.kind == "event"
        assert report.index == self._first_mismatch_by_linear_scan(left, right)
        assert report.right_entry["kind"] == "MUTANT"
        assert report.fields == ["kind"]
        window_start, window_end = report.window
        assert window_start <= report.index < window_end

    def test_binary_search_probes_logarithmic(self, tmp_path):
        # 256 events / interval 4 = 64 checkpoints; probes ~ log2(64) + 1.
        mutate = (200, lambda e: (e[0], e[1], "MUTANT", e[3], e[4]))
        _write(tmp_path / "a", _events(256), interval=4)
        _write(tmp_path / "b", _events(256, mutate=mutate), interval=4)
        report = find_divergence(
            load_recording(tmp_path / "a"), load_recording(tmp_path / "b")
        )
        assert report.index is not None
        assert 0 < report.probes <= 8

    def test_divergence_after_last_checkpoint(self, tmp_path):
        mutate = (9, lambda e: (e[0], e[1], "MUTANT", e[3], e[4]))
        _write(tmp_path / "a", _events(10), interval=4)
        _write(tmp_path / "b", _events(10, mutate=mutate), interval=4)
        left = load_recording(tmp_path / "a")
        right = load_recording(tmp_path / "b")
        report = find_divergence(left, right)
        assert report.kind == "event"
        assert report.index == self._first_mismatch_by_linear_scan(left, right)

    def test_context_echoes_last_matching_events(self, tmp_path):
        mutate = (8, lambda e: (e[0], e[1], "MUTANT", e[3], e[4]))
        _write(tmp_path / "a", _events(10), interval=100)
        _write(tmp_path / "b", _events(10, mutate=mutate), interval=100)
        report = find_divergence(
            load_recording(tmp_path / "a"),
            load_recording(tmp_path / "b"),
            context=3,
        )
        assert [entry["seq"] for entry in report.context] == [5, 6, 7]

    def test_truncated_prefix(self, tmp_path):
        _write(tmp_path / "a", _events(6), interval=100)
        _write(tmp_path / "b", _events(9), interval=100)
        report = find_divergence(
            load_recording(tmp_path / "a"), load_recording(tmp_path / "b")
        )
        assert report.kind == "truncated"
        assert report.right_entry["seq"] == 6
        assert "prefix" in render_report(report)

    def test_rng_checkpoint_divergence_names_streams(self, tmp_path):
        # Identical event records (same draw totals), but two streams
        # traded draws one-for-one -> only the checkpoint line differs.
        script = _events(4)
        draws_a = [(i + 1, {"alpha": i + 1}) for i in range(4)]
        draws_b = [(i + 1, {"alpha": i, "beta": 1} if i >= 1 else {"alpha": i + 1})
                   for i in range(4)]
        _write(tmp_path / "a", script, interval=4, draws=draws_a)
        _write(tmp_path / "b", script, interval=4, draws=draws_b)
        report = find_divergence(
            load_recording(tmp_path / "a"), load_recording(tmp_path / "b")
        )
        assert report.kind == "rng-checkpoint"
        deltas = {delta.stream: (delta.left, delta.right) for delta in report.streams}
        assert deltas == {"alpha": (4, 3), "beta": (0, 1)}
        assert "streams traded draws" in render_report(report)

    def test_event_divergence_reports_stream_deltas(self, tmp_path):
        mutate = (2, lambda e: (e[0], e[1], "MUTANT", e[3], e[4]))
        draws_a = [(i + 1, {"alpha": i + 1}) for i in range(4)]
        draws_b = [(i + 2, {"alpha": i + 1, "beta": 1}) for i in range(4)]
        _write(tmp_path / "a", _events(4), interval=4, draws=draws_a)
        _write(tmp_path / "b", _events(4, mutate=mutate), interval=4, draws=draws_b)
        report = find_divergence(
            load_recording(tmp_path / "a"), load_recording(tmp_path / "b")
        )
        assert report.kind == "event"
        streams = {delta.stream for delta in report.streams}
        assert "beta" in streams

    def test_mismatched_intervals_raise(self, tmp_path):
        _write(tmp_path / "a", _events(4), interval=2)
        _write(tmp_path / "b", _events(5), interval=4)
        with pytest.raises(ValueError, match="checkpoint intervals"):
            find_divergence(
                load_recording(tmp_path / "a"), load_recording(tmp_path / "b")
            )

    def test_span_stack_rendered_when_spans_present(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("drive") as drive:
            span_id = drive.span_id
        for name in ("a", "b"):
            run = tmp_path / name
            flight = run / "flight"
            flight.mkdir(parents=True)
            kind = "tick" if name == "a" else "MUTANT"
            _write(flight, [(0, 0.0, kind, "demo:proc", span_id)], interval=100)
            write_spans_jsonl(tracer.spans(), run / "spans.jsonl")
        report = find_divergence(
            load_recording(tmp_path / "a" / "flight"),
            load_recording(tmp_path / "b" / "flight"),
        )
        assert report.left_stack == f"#{span_id} drive"
        assert "span stack" in render_report(report)


class TestAlignRuns:
    def _run_dir(self, tmp_path, name, script):
        target = tmp_path / name / "flight"
        target.mkdir(parents=True)
        recorder = FlightRecorder()
        for event in script:
            recorder.record(*event)
        recorder.finalize(target)
        return tmp_path / name

    def test_identical_runs(self, tmp_path):
        a = self._run_dir(tmp_path, "a", _events(5))
        b = self._run_dir(tmp_path, "b", _events(5))
        alignment = align_runs(a, b)
        assert alignment.identical
        assert alignment.first_divergence() is None
        assert "bitwise-identical" in render_alignment(alignment)

    def test_divergent_run_located(self, tmp_path):
        mutate = (2, lambda e: (e[0], e[1], "MUTANT", e[3], e[4]))
        a = self._run_dir(tmp_path, "a", _events(5))
        b = self._run_dir(tmp_path, "b", _events(5, mutate=mutate))
        alignment = align_runs(a, b)
        assert not alignment.identical
        first = alignment.first_divergence()
        assert first.kind == "event"
        assert first.index == 2
        assert "DIVERGED at log entry 2" in render_alignment(alignment)

    def test_to_dict_round_trips_through_json(self, tmp_path):
        a = self._run_dir(tmp_path, "a", _events(3))
        b = self._run_dir(tmp_path, "b", _events(3))
        payload = json.loads(json.dumps(align_runs(a, b).to_dict()))
        assert payload["identical"] is True
        assert payload["report"]["kind"] == "identical"
