"""Deterministic run manifests and manifest diffing.

A :class:`RunManifest` is a small, canonical description of one run —
seed, config digest, event count, span count, and the full metric
snapshot — such that two runs can be *attested identical* by comparing
manifests (or their digests).  ``python -m repro.obs diff`` builds on
:func:`diff_manifests`, which reports every field/metric that drifted
between two manifests, giving benchmarks a machine-checkable trajectory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

#: Manifest schema version; bump on incompatible field changes.
#: "3" dropped the per-shard ``shards`` sections of version "2".
MANIFEST_VERSION = "3"


def _jsonable(value: Any) -> Any:
    """Fallback encoder: dataclasses → dicts, sets sorted, else repr."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return repr(value)


def canonical_json(payload: Any) -> str:
    """Canonical JSON: sorted keys, minimal separators, stable encoding."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_jsonable
    )


def config_digest(config: Any) -> str:
    """SHA-256 hex digest of a config object's canonical JSON form.

    Accepts dataclasses (e.g. :class:`repro.core.config.AgoraConfig`),
    plain dicts, or anything JSON-encodable via :func:`canonical_json`.
    """
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """Canonical provenance record of one run."""

    seed: int
    config_digest: str
    event_count: int
    span_count: int
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: flight-recording provenance (rolling digest, event count) for
    #: runs recorded with ``enable_flight_recorder``; *included* in drift
    #: comparison — a drifted flight digest means the recordings are
    #: available for ``python -m repro.obs divergence``.  Omitted from
    #: the serialized form when empty so recorder-off manifests (and
    #: their digests) are byte-identical to pre-flight manifests.
    flight: Dict[str, Any] = field(default_factory=dict)
    #: free-form annotations (run name, scenario, host notes); *excluded*
    #: from drift comparison so two attested-identical runs may still be
    #: labelled differently
    labels: Dict[str, str] = field(default_factory=dict)
    version: str = MANIFEST_VERSION

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (stable field names)."""
        payload: Dict[str, Any] = {
            "version": self.version,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "event_count": self.event_count,
            "span_count": self.span_count,
            "metrics": self.metrics,
            "labels": dict(self.labels),
        }
        if self.flight:
            payload["flight"] = dict(self.flight)
        return payload

    def to_json(self) -> str:
        """Canonical JSON rendering."""
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        """SHA-256 of the comparable (label-free) canonical form."""
        comparable = self.to_dict()
        comparable.pop("labels")
        return hashlib.sha256(canonical_json(comparable).encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunManifest":
        """Inverse of :meth:`to_dict`."""
        return cls(
            seed=int(payload["seed"]),
            config_digest=str(payload["config_digest"]),
            event_count=int(payload["event_count"]),
            span_count=int(payload["span_count"]),
            metrics=dict(payload.get("metrics", {})),
            flight=dict(payload.get("flight", {})),
            labels=dict(payload.get("labels", {})),
            version=str(payload.get("version", MANIFEST_VERSION)),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """Parse a manifest from its JSON rendering."""
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class Drift:
    """One field or metric that differs between two manifests."""

    key: str
    left: Any
    right: Any

    def render(self) -> str:
        """One human-readable drift line."""
        return f"{self.key}: {self.left!r} != {self.right!r}"


@dataclass
class ManifestDiff:
    """The full drift report between two manifests."""

    drifts: List[Drift] = field(default_factory=list)

    @property
    def drift_count(self) -> int:
        """Number of drifted fields/metrics (0 means attested identical)."""
        return len(self.drifts)

    @property
    def clean(self) -> bool:
        """True when the two manifests are identical (labels aside)."""
        return not self.drifts

    def render(self) -> str:
        """Multi-line human-readable report."""
        if self.clean:
            return "zero drift: manifests are identical"
        lines = [f"{self.drift_count} drifted field(s):"]
        lines.extend(f"  {drift.render()}" for drift in self.drifts)
        return "\n".join(lines)


def _flatten(prefix: str, value: Any, out: Dict[str, Any]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten(f"{prefix}[{index}]", item, out)
    else:
        out[prefix] = value


def flatten_manifest(manifest: RunManifest) -> Dict[str, Any]:
    """Dotted-key scalar view of a manifest's comparable fields."""
    payload = manifest.to_dict()
    payload.pop("labels")
    flat: Dict[str, Any] = {}
    _flatten("", payload, flat)
    return flat


def diff_manifests(left: RunManifest, right: RunManifest) -> ManifestDiff:
    """Compare two manifests field-by-field and metric-by-metric.

    Labels are ignored; everything else — seed, config digest, event
    count, span count, and every flattened metric entry — must match for
    the diff to come back clean.  Keys present on only one side count as
    drift (reported against ``None`` on the other side).
    """
    flat_left = flatten_manifest(left)
    flat_right = flatten_manifest(right)
    diff = ManifestDiff()
    for key in sorted(set(flat_left) | set(flat_right)):
        left_value = flat_left.get(key)
        right_value = flat_right.get(key)
        if left_value != right_value:
            diff.drifts.append(Drift(key=key, left=left_value, right=right_value))
    return diff
