"""Tests for the streaming flight recorder."""

import functools
import json

import pytest

from repro.obs.flight import (
    CHUNK_PATTERN,
    FLIGHT_VERSION,
    FOOTER_FILE,
    FlightRecorder,
    callback_identity,
)


def _record_n(recorder, n, start=0):
    for index in range(start, start + n):
        recorder.record(index, float(index), "tick", "m:f", None)


class TestCallbackIdentity:
    def test_plain_function(self):
        def hook():
            pass

        identity = callback_identity(hook)
        assert identity.endswith(":TestCallbackIdentity.test_plain_function.<locals>.hook")
        assert identity.startswith("tests.obs.test_flight")

    def test_lambda(self):
        assert "<lambda>" in callback_identity(lambda: None)

    def test_bound_method(self):
        class Widget:
            def fire(self):
                pass

        identity = callback_identity(Widget().fire)
        assert identity.endswith(":TestCallbackIdentity.test_bound_method.<locals>.Widget.fire")

    def test_partial_unwrapped(self):
        def hook(x):
            pass

        assert callback_identity(functools.partial(hook, 1)) == callback_identity(hook)

    def test_wrapped_chain_unwrapped(self):
        def inner():
            pass

        @functools.wraps(inner)
        def outer():
            inner()

        assert callback_identity(outer) == callback_identity(inner)

    def test_callable_object_falls_back_to_class(self):
        class Proc:
            def __call__(self):
                pass

        identity = callback_identity(Proc())
        assert "Proc" in identity
        assert "0x" not in identity

    def test_no_memory_addresses(self):
        assert "0x" not in callback_identity(lambda: None)


class TestFlightRecorder:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FlightRecorder(checkpoint_interval=0)
        with pytest.raises(ValueError):
            FlightRecorder(chunk_lines=0)

    def test_record_appends_canonical_entries(self):
        recorder = FlightRecorder()
        recorder.record(3, 1.5, "query", "mod:fn", 7)
        assert recorder.record_count == 1
        footer = recorder.footer_dict()
        assert footer["events"] == 1
        assert footer["version"] == FLIGHT_VERSION

    def test_checkpoint_cadence(self):
        recorder = FlightRecorder(checkpoint_interval=4)
        _record_n(recorder, 11)
        assert [entry["events"] for entry in recorder.checkpoints()] == [4, 8]

    def test_checkpoint_digest_covers_preceding_lines_only(self):
        left = FlightRecorder(checkpoint_interval=4)
        right = FlightRecorder(checkpoint_interval=4)
        _record_n(left, 4)
        _record_n(right, 4)
        # Same first window -> same checkpoint digest.
        assert left.checkpoints()[0]["digest"] == right.checkpoints()[0]["digest"]

    def test_digest_deterministic_for_same_inputs(self):
        left = FlightRecorder(checkpoint_interval=8)
        right = FlightRecorder(checkpoint_interval=8)
        _record_n(left, 20)
        _record_n(right, 20)
        assert left.digest == right.digest

    def test_digest_sensitive_to_any_field(self):
        left = FlightRecorder()
        right = FlightRecorder()
        left.record(0, 1.0, "tick", "m:f", None)
        right.record(0, 1.0, "tick", "m:g", None)
        assert left.digest != right.digest

    def test_draw_deltas_measured_from_start(self):
        draws = {"total": 100, "streams": {"warmup": 100}}
        recorder = FlightRecorder()
        recorder.bind_rng(
            draw_total=lambda: draws["total"],
            draw_counts=lambda: dict(draws["streams"]),
        )
        recorder.start()  # baseline: 100 construction-time draws
        draws["total"] = 103
        draws["streams"] = {"warmup": 100, "query": 3}
        recorder.record(0, 1.0, "tick", "m:f", None)
        footer = recorder.footer_dict()
        # Zero-delta warmup stream is omitted; only run-time draws appear.
        assert footer["streams"] == {"query": 3}

    def test_start_is_idempotent(self):
        total = [5]
        recorder = FlightRecorder()
        recorder.bind_rng(draw_total=lambda: total[0], draw_counts=dict)
        recorder.start()
        total[0] = 50
        recorder.start()  # must not re-baseline
        recorder.record(0, 1.0, "tick", "m:f", None)
        assert recorder.footer_dict()["streams"] == {}

    def test_record_lines_match_canonical_json(self, tmp_path):
        # The hot path hand-builds each line; it must stay byte-identical
        # to json.dumps with sorted keys and minimal separators.
        recorder = FlightRecorder(checkpoint_interval=100)
        recorder.record(0, 1.5, 'na"me\\with\nescapes', "mod:Cls.fn", 7)
        recorder.record(1, 2.0, "tick", "mod:fn", None)
        recorder.finalize(tmp_path)
        for line in (tmp_path / "chunk-000000.jsonl").read_text().splitlines():
            entry = json.loads(line)
            assert line == json.dumps(entry, sort_keys=True, separators=(",", ":"))

    def test_chunked_streaming(self, tmp_path):
        recorder = FlightRecorder(checkpoint_interval=100, chunk_lines=4)
        recorder.bind_directory(tmp_path)
        _record_n(recorder, 10)
        written = recorder.finalize()
        assert written == {"flight": str(tmp_path)}
        chunks = sorted(path.name for path in tmp_path.glob("chunk-*.jsonl"))
        assert chunks == [CHUNK_PATTERN.format(i) for i in range(3)]
        lines = []
        for chunk in chunks:
            lines.extend((tmp_path / chunk).read_text().splitlines())
        assert len(lines) == 10
        assert [json.loads(line)["seq"] for line in lines] == list(range(10))

    def test_footer_matches_content(self, tmp_path):
        recorder = FlightRecorder(checkpoint_interval=3)
        _record_n(recorder, 7)
        recorder.finalize(tmp_path)
        footer = json.loads((tmp_path / FOOTER_FILE).read_text())
        assert footer["events"] == 7
        assert footer["chunks"] == 1
        assert footer["checkpoint_interval"] == 3
        assert len(footer["checkpoints"]) == 2
        assert footer["digest"] == recorder.digest

    def test_record_after_finalize_raises(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record(0, 1.0, "tick", "m:f", None)
        recorder.finalize(tmp_path)
        with pytest.raises(RuntimeError):
            recorder.record(1, 2.0, "tick", "m:f", None)

    def test_finalize_without_directory_raises(self):
        with pytest.raises(ValueError):
            FlightRecorder().finalize()

    def test_manifest_section(self):
        recorder = FlightRecorder()
        _record_n(recorder, 3)
        section = recorder.manifest_section()
        assert section == {"digest": recorder.digest, "events": 3}
