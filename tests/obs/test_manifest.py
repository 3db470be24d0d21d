"""Tests for run manifests, canonical JSON, and manifest diffing."""

from dataclasses import dataclass

from repro.obs import (
    RunManifest,
    canonical_json,
    config_digest,
    diff_manifests,
    flatten_manifest,
)


def make_manifest(**overrides):
    base = dict(
        seed=11,
        config_digest="abc",
        event_count=120,
        span_count=40,
        metrics={
            "counters": {"sim.events": 120.0, "qos.breaches": 2.0},
            "gauges": {},
            "histograms": {"lat": {"count": 3.0, "p99": 0.5}},
        },
        labels={"scenario": "t"},
    )
    base.update(overrides)
    return RunManifest(**base)


class TestCanonicalJson:
    def test_sorted_keys_minimal_separators(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_dataclass_and_set_fallbacks(self):
        @dataclass
        class Config:
            seed: int
            names: tuple

        text = canonical_json({"cfg": Config(3, ("b", "a")), "s": {2, 1}})
        assert text == '{"cfg":{"names":["b","a"],"seed":3},"s":[1,2]}'

    def test_config_digest_is_stable_and_order_free(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})
        assert config_digest({"a": 1}) != config_digest({"a": 2})
        assert len(config_digest({"a": 1})) == 64


class TestRunManifest:
    def test_round_trip_through_json(self):
        manifest = make_manifest()
        assert RunManifest.from_json(manifest.to_json()) == manifest

    def test_digest_ignores_labels(self):
        relabelled = make_manifest(labels={"scenario": "other", "extra": "x"})
        assert make_manifest().digest() == relabelled.digest()

    def test_digest_sees_metric_changes(self):
        drifted = make_manifest(
            metrics={"counters": {"sim.events": 121.0}, "gauges": {},
                     "histograms": {}},
        )
        assert make_manifest().digest() != drifted.digest()

    def test_flatten_produces_dotted_scalars(self):
        flat = flatten_manifest(make_manifest())
        assert flat["seed"] == 11
        assert flat["metrics.counters.sim.events"] == 120.0
        assert flat["metrics.histograms.lat.p99"] == 0.5
        assert not any(key.startswith("labels") for key in flat)


class TestDiff:
    def test_identical_manifests_are_clean(self):
        report = diff_manifests(make_manifest(), make_manifest())
        assert report.clean
        assert report.drift_count == 0
        assert "zero drift" in report.render()

    def test_labels_do_not_drift(self):
        report = diff_manifests(
            make_manifest(), make_manifest(labels={"scenario": "renamed"})
        )
        assert report.clean

    def test_changed_counter_is_reported(self):
        right = make_manifest(
            metrics={
                "counters": {"sim.events": 125.0, "qos.breaches": 2.0},
                "gauges": {},
                "histograms": {"lat": {"count": 3.0, "p99": 0.5}},
            },
        )
        report = diff_manifests(make_manifest(), right)
        assert not report.clean
        keys = [drift.key for drift in report.drifts]
        assert keys == ["metrics.counters.sim.events"]
        assert report.drifts[0].left == 120.0
        assert report.drifts[0].right == 125.0
        assert "sim.events" in report.render()

    def test_one_sided_metric_counts_as_drift(self):
        right = make_manifest(
            metrics={
                "counters": {"sim.events": 120.0, "qos.breaches": 2.0,
                             "new.counter": 1.0},
                "gauges": {},
                "histograms": {"lat": {"count": 3.0, "p99": 0.5}},
            },
        )
        report = diff_manifests(make_manifest(), right)
        drift = {d.key: (d.left, d.right) for d in report.drifts}
        assert drift == {"metrics.counters.new.counter": (None, 1.0)}

    def test_seed_drift_detected(self):
        report = diff_manifests(make_manifest(), make_manifest(seed=12))
        assert [d.key for d in report.drifts] == ["seed"]


class TestFlightSection:
    def flight_section(self, digest="f" * 64, events=10):
        return {"digest": digest, "events": events}

    def test_flight_participates_in_digest(self):
        plain = make_manifest()
        with_flight = make_manifest(flight=self.flight_section())
        assert plain.digest() != with_flight.digest()

    def test_flight_omitted_from_payload_when_empty(self):
        assert "flight" not in make_manifest().to_dict()
        assert "flight" in make_manifest(flight=self.flight_section()).to_dict()

    def test_round_trip_preserves_flight(self):
        manifest = make_manifest(flight=self.flight_section())
        assert RunManifest.from_json(manifest.to_json()) == manifest

    def test_flight_digest_drift_is_reported(self):
        left = make_manifest(flight=self.flight_section(digest="a" * 64))
        right = make_manifest(flight=self.flight_section(digest="b" * 64))
        report = diff_manifests(left, right)
        assert not report.clean
        assert any(d.key.startswith("flight.") for d in report.drifts)

    def test_recorder_off_manifests_stay_identical(self):
        # A run with the recorder off must produce byte-identical
        # manifests to a pre-flight-recorder build.
        left, right = make_manifest(), make_manifest(flight={})
        assert left.to_json() == right.to_json()
        assert diff_manifests(left, right).clean
