"""Pin the generated corpus to exact bytes.

Every workload, test and table rebuilds the synthetic corpus from a seed,
so same seed → same bytes must hold for it like for every answer.  These
digests hash what corpus generation produces — ids, types, latents, term
bags in dict order, media features and compound part weights — plus the
per-stream draw counts, once for a static agora and once for the items
update streams publish while a live agora runs.  A change to corpus
generation that reorders a draw, changes its arguments or reorders a
floating-point step shows up here as a changed digest.
"""

import hashlib

import numpy as np

from repro import build_agora
from repro.data import CompoundObject, InformationItem, MediaObject, TextDocument

#: SHA-256 of every source's items of ``build_agora(seed=7, 20×400)``.
STATIC_CORPUS_SHA256 = (
    "5afc1844fa8363dd55e2a746c19f44b041f378af855f04d8447b2c7ee302b4c0"
)
#: SHA-256 of that agora's ``sim.rng.draw_counts()``.
STATIC_DRAW_COUNTS_SHA256 = (
    "b57cd094638f1b8506b5ee2239063e9c62d838175984afe8213b2c09411dafb8"
)
#: SHA-256 of the items update streams publish by ``run(until=50)``.
LIVE_PUBLISHED_SHA256 = (
    "e0ef9aee0c430e7f22b478add02a3ef4a3955e22504b0202b5c9ece4f58789a2"
)
#: SHA-256 of the live agora's ``sim.rng.draw_counts()`` after the run.
LIVE_DRAW_COUNTS_SHA256 = (
    "1c189d02d010c75cb8fec80795d3722b566af74274056c595f3fd177c9e5d829"
)


def _feed_item(digest, item: InformationItem) -> None:
    digest.update(f"{item.item_id}|{type(item).__name__}|".encode())
    digest.update(np.ascontiguousarray(item.latent, dtype=float).tobytes())
    if isinstance(item, TextDocument):
        for term, count in item.terms.items():
            digest.update(f"{term}:{count};".encode())
    elif isinstance(item, MediaObject):
        digest.update(
            np.ascontiguousarray(item.true_features, dtype=float).tobytes()
        )
    elif isinstance(item, CompoundObject):
        digest.update(f"{item.layout}|{len(item.parts)}|".encode())
        for part, weight in item.parts:
            digest.update(f"{float(weight).hex()}|".encode())
            _feed_item(digest, part)
    digest.update(b"\n")


def _items_digest(items) -> str:
    digest = hashlib.sha256()
    for item in items:
        _feed_item(digest, item)
    return digest.hexdigest()


def _counts_digest(mapping) -> str:
    text = ";".join(f"{key}={value}" for key, value in mapping.items())
    return hashlib.sha256(text.encode()).hexdigest()


def test_static_corpus_digest():
    agora = build_agora(seed=7, n_sources=20, items_per_source=400)
    items = []
    for source_id in sorted(agora.sources):
        items.extend(agora.sources[source_id].visible_items(now=float("inf")))
    assert len(items) > 4000
    assert _items_digest(items) == STATIC_CORPUS_SHA256
    assert _counts_digest(agora.sim.rng.draw_counts()) == STATIC_DRAW_COUNTS_SHA256


def test_live_published_digest():
    agora = build_agora(
        seed=7, n_sources=10, items_per_source=40,
        calibration_pairs=0, start_update_streams=True,
    )
    published = []
    for stream in agora.update_streams:
        stream.subscribe(lambda source_id, item: published.append(item))
    agora.run(until=50)
    assert len(published) > 20
    assert any(isinstance(item, CompoundObject) for item in published)
    assert _items_digest(published) == LIVE_PUBLISHED_SHA256
    assert _counts_digest(agora.sim.rng.draw_counts()) == LIVE_DRAW_COUNTS_SHA256
