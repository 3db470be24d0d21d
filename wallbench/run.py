# module: benchmarks.wallbench.run
"""Wall-clock benchmark of ``Consumer.ask`` on a seeded agora.

Usage (from the repository root)::

    python3 wallbench/run.py --workload topic-static --seed 1 --seconds 10 --trace 0

One run:

1. sets the workload's agora up and replays the *check window* (the
   first timed asks) on it in the tracing mode the run does not measure;
2. sets the agora up ``SETUPS - 1`` more times in the measured mode;
   ``setup_s`` is the median of all set-ups and the last agora is kept;
3. drives the closed loop for ``--seconds`` seconds (and at least the
   reference prefix of the query stream), timing every ask on the host
   clock;
4. fails unless the check window gave the same answers, program counters
   and run-manifest digest in both modes.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's entry points (see ``layer_trace.py``) and reports per-layer ones.
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3

#: the program counters compared between the traced and untraced runs and
#: reported as exact per-layer counts
COUNTERS = (
    "source.block_cache.hits",
    "source.block_cache.extends",
    "source.block_cache.misses",
    "source.block_cache.rebuilds",
    "matching.cache.text_tf.hits",
    "matching.cache.text_tf.misses",
    "matching.cache.text_tf.evictions",
    "matching.cache.media_features.hits",
    "matching.cache.media_features.misses",
    "matching.cache.media_features.evictions",
    "matching.cache.concept_lifts.hits",
    "matching.cache.concept_lifts.misses",
    "matching.cache.concept_lifts.evictions",
    "matching.prune.calls",
    "matching.prune.fallback_calls",
    "matching.prune.domain_skips",
    "matching.prune.candidates_total",
    "matching.prune.candidates_scored",
    "matching.prune.chunks_total",
    "matching.prune.chunks_skipped",
)

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "setup_s": "s",
    "ask_p50_ms": "ms",
    "ask_p90_ms": "ms",
    "asks_per_s": "1/s",
    "answered_frac": "ratio",
    "peak_rss_mb": "MB",
    "utility_mean": "utility",
    "completeness_mean": "ratio",
}

#: timed-phase layer times, ms per timed ask: metric -> (span, self time?)
LAYER_TIMES = {
    "core.ask_self_ms": ("core.ask", True),
    "optimizer.plan_ms": ("optimizer.plan", False),
    "query.execute_self_ms": ("query.execute", True),
    "query.merge_ms": ("query.merge", False),
    "query.audit_ms": ("query.audit", False),
    "uncertainty.match_ms": ("uncertainty.match", False),
    "uncertainty.prepare_ms": ("uncertainty.prepare", False),
    "sources.answer_self_ms": ("sources.answer", True),
    "sources.ingest_ms": ("sources.ingest", False),
    "qos.settle_ms": ("qos.settle", False),
    "personalization.rerank_ms": ("personalization.rerank", False),
    "sim.run_ms_per_ask": ("sim.run", False),
    "multimodal.feed_screen_ms": ("multimodal.feed_screen", False),
    "data.generate_ms": ("data.generate", False),
    "obs.flight_record_ms": ("obs.flight_record", False),
    "obs.profiler_record_ms": ("obs.profiler_record", False),
}

#: set-up layer times, ms per set-up: the timed-phase spans plus the
#: agora constructor's own time
SETUP_TIMES = {
    "setup.core.build_self_ms": ("core.build", True),
    **{f"setup.{name.replace('_ms_per_ask', '_ms')}": span
       for name, span in LAYER_TIMES.items()},
}

#: per-layer work counts over the check window (exact on every run)
WINDOW_COUNTS = {
    "optimizer.contracts_per_ask": "count",
    "query.audit_items_per_ask": "count",
    "uncertainty.scored_frac": "ratio",
    "uncertainty.tf_hit_frac": "ratio",
    "uncertainty.lift_hit_frac": "ratio",
    "uncertainty.lru_evictions": "count",
    "sources.answers_per_ask": "count",
    "sources.decline_frac": "ratio",
    "sources.block_hit_frac": "ratio",
    "sources.block_rebuilds": "count",
    "sources.items_ingested": "count",
    "qos.breach_frac": "ratio",
    "resilience.retries_per_ask": "count",
    "resilience.failovers_per_ask": "count",
    "resilience.hedges_per_ask": "count",
    "sim.events_per_ask": "count",
    "multimodal.items_screened": "count",
}

#: per-layer metrics (``--trace 1``): name -> unit
PER_LAYER = {
    **{name: "ms" for name in LAYER_TIMES},
    **{name: "ms" for name in SETUP_TIMES},
    **WINDOW_COUNTS,
    **{f"count.{name}": "count" for name in COUNTERS},
    "trace.overhead_frac": "ratio",
}


def now() -> float:
    """Host seconds from a monotonic clock."""
    return time.perf_counter()  # agora: ignore[AGR001] this benchmark measures host time


# ----------------------------------------------------------------------
# One drive of the closed loop
# ----------------------------------------------------------------------
@dataclass
class Checkpoint:
    """Program state after the check window's last ask."""

    counters: Dict[str, float]
    manifest_digest: str
    layers: Any  # LayerSnapshot, or None when untraced
    busy: float


@dataclass
class Drive:
    """What one drive of the closed loop measured and answered.

    Answer hashes and quality cover the first ``quality`` asks; result
    counts (contracts, breaches, resilience events) the first ``check``.
    """

    latencies: List[float] = field(default_factory=list)
    busy: float = 0.0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    answer_hashes: List[str] = field(default_factory=list)
    utilities: List[float] = field(default_factory=list)
    completeness: List[float] = field(default_factory=list)
    contracts: int = 0
    settlements: int = 0
    breaches: int = 0
    resilience: Dict[str, float] = field(default_factory=dict)
    start_counters: Dict[str, float] = field(default_factory=dict)
    start_layers: Any = None
    checkpoint: Optional[Checkpoint] = None
    end_layers: Any = None

    @property
    def answer_digest(self) -> str:
        """SHA-256 over the per-ask answer hashes, in order."""
        return hashlib.sha256("\n".join(self.answer_hashes).encode()).hexdigest()


def answer_hash(result: Any) -> str:
    """Hash of everything one ask answered, floats in exact hex form."""
    parts = [f"ranked {item.item_id}" for item in result.ranked_items]
    parts += [
        f"match {m.item.item_id} {float(m.score).hex()} {float(m.probability).hex()}"
        for m in result.results.matches
    ]
    parts.append(f"utility {float(result.utility).hex()}")
    parts.append(f"completeness {float(result.delivered.completeness).hex()}")
    parts += [f"contract {contract.provider_id}" for contract in result.contracts]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def drive(session: Any, seconds: float, check: int, quality: int, tracer: Any) -> Drive:
    """Run the closed loop for ``seconds`` and at least ``quality`` asks."""
    agora = session.agora
    out = Drive(
        start_counters=dict(agora.sim.metrics.counters()),
        start_layers=tracer.snapshot() if tracer is not None else None,
    )
    started = now()
    while True:
        asked = len(out.latencies)
        if asked == check:
            out.checkpoint = Checkpoint(
                counters=dict(agora.sim.metrics.counters()),
                manifest_digest=agora.run_manifest().digest(),
                layers=tracer.snapshot() if tracer is not None else None,
                busy=out.busy,
            )
        if asked >= max(check, quality) and now() - started >= seconds:
            break
        consumer, query = session.next_turn()
        began = now()
        session.advance()
        asked_at = now()
        try:
            result = consumer.ask(query)
        except Exception:  # a failed ask is counted, reported and survived
            result = None
            traceback.print_exc()
        finished = now()
        out.busy += finished - began
        out.latencies.append(finished - asked_at)
        if result is None or not result.ranked_items:
            out.failed += 1
        if result is not None:
            if not math.isfinite(result.utility):
                out.problems.append(f"ask {asked}: non-finite utility {result.utility!r}")
            if len(result.ranked_items) > query.k:
                out.problems.append(
                    f"ask {asked}: {len(result.ranked_items)} ranked items for k={query.k}"
                )
        if asked < quality:
            out.answer_hashes.append("raised" if result is None else answer_hash(result))
            if result is not None:
                out.utilities.append(float(result.utility))
                out.completeness.append(float(result.delivered.completeness))
        if asked < check and result is not None:
            out.contracts += len(result.contracts)
            out.settlements += len(result.settlements)
            out.breaches += result.breached_contracts
            for name, value in result.resilience_events.items():
                out.resilience[name] = out.resilience.get(name, 0.0) + value
    out.end_layers = tracer.snapshot() if tracer is not None else None
    return out


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def set_up(workload: Any, seed: int, scale: Any, tracer: Any) -> Tuple[Any, float, Any]:
    """Build one ready session; returns it, its seconds and its layer totals."""
    from agora_workloads import Session

    gc.collect()
    before = tracer.snapshot() if tracer is not None else None
    began = now()
    session = Session(workload, seed, scale, pause=pauser(tracer))
    elapsed = now() - began
    layers = tracer.snapshot().minus(before) if tracer is not None else None
    return session, elapsed, layers


def pauser(tracer: Any) -> Callable[[bool], None]:
    """A ``Session.pause`` hook that pauses ``tracer`` (if any)."""

    def pause(paused: bool) -> None:
        if tracer is not None:
            tracer.paused = paused

    return pause


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def latency_percentiles(latencies: Sequence[float]) -> Dict[int, float]:
    """p50, p90, p95 and p99 of ``latencies`` (seconds), in ms."""
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {q: cuts[q - 1] * 1e3 for q in (50, 90, 95, 99)}


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(
    setup_times: List[float], main: Drive, peak_rss_mb: float
) -> Dict[str, float]:
    """The user-visible metrics of one untraced run."""
    asked = len(main.latencies)
    percentiles = latency_percentiles(main.latencies)
    return {
        "setup_s": statistics.median(setup_times),
        "ask_p50_ms": percentiles[50],
        "ask_p90_ms": percentiles[90],
        "asks_per_s": asked / main.busy,
        "answered_frac": (asked - main.failed) / asked,
        "peak_rss_mb": peak_rss_mb,
        "utility_mean": statistics.fmean(main.utilities),
        "completeness_mean": statistics.fmean(main.completeness),
    }


def layer_metrics(
    setup_layers: Any, main: Drive, check: int, untraced_check_busy: float
) -> Dict[str, float]:
    """The per-layer metrics of one traced run."""
    assert main.checkpoint is not None
    timed = main.end_layers.minus(main.start_layers)
    asked = len(main.latencies)
    metrics: Dict[str, float] = {}
    for name, (span, own) in LAYER_TIMES.items():
        seconds = (timed.self_time if own else timed.inclusive).get(span, 0.0)
        metrics[name] = seconds * 1e3 / asked
    for name, (span, own) in SETUP_TIMES.items():
        seconds = (setup_layers.self_time if own else setup_layers.inclusive).get(span, 0.0)
        metrics[name] = seconds * 1e3

    window = main.checkpoint.layers.minus(main.start_layers)
    counts = {
        name: main.checkpoint.counters.get(name, 0.0) - main.start_counters.get(name, 0.0)
        for name in COUNTERS
    }
    answers = window.calls.get("sources.answer", 0.0)
    block_lookups = sum(counts[f"source.block_cache.{e}"] for e in
                        ("hits", "extends", "misses", "rebuilds"))

    def hit_frac(cache: str) -> float:
        hits = counts[f"matching.cache.{cache}.hits"]
        return ratio(hits, hits + counts[f"matching.cache.{cache}.misses"])

    metrics.update({
        "optimizer.contracts_per_ask": main.contracts / check,
        "query.audit_items_per_ask": window.counts.get("audit_items", 0.0) / check,
        "uncertainty.scored_frac": ratio(counts["matching.prune.candidates_scored"],
                                         counts["matching.prune.candidates_total"]),
        "uncertainty.tf_hit_frac": hit_frac("text_tf"),
        "uncertainty.lift_hit_frac": hit_frac("concept_lifts"),
        "uncertainty.lru_evictions": sum(
            counts[f"matching.cache.{cache}.evictions"]
            for cache in ("text_tf", "media_features", "concept_lifts")
        ),
        "sources.answers_per_ask": answers / check,
        "sources.decline_frac": ratio(window.counts.get("declines", 0.0), answers),
        "sources.block_hit_frac": ratio(counts["source.block_cache.hits"], block_lookups),
        "sources.block_rebuilds": counts["source.block_cache.rebuilds"],
        "sources.items_ingested": window.counts.get("items_ingested", 0.0),
        "qos.breach_frac": ratio(main.breaches, main.settlements),
        "resilience.retries_per_ask": main.resilience.get("retries", 0.0) / check,
        "resilience.failovers_per_ask": main.resilience.get("failovers", 0.0) / check,
        "resilience.hedges_per_ask": main.resilience.get("hedges", 0.0) / check,
        "sim.events_per_ask": window.counts.get("events", 0.0) / check,
        "multimodal.items_screened": window.calls.get("multimodal.feed_screen", 0.0),
    })
    metrics.update({f"count.{name}": value for name, value in counts.items()})
    metrics["trace.overhead_frac"] = main.checkpoint.busy / untraced_check_busy - 1.0
    return metrics


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes, sorted)."""
    digest = hashlib.sha256()
    files = (p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> Optional[str]:
    """The checkout's git commit, when it is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("topic-static", "similarity-search", "live-churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="agora size; 'tiny' is for the benchmark's smoke tests")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"wallbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import agora_workloads
    import layer_trace
    import numpy

    from repro.obs.manifest import config_digest

    workload = agora_workloads.WORKLOADS[args.workload]
    scale = agora_workloads.SCALES[args.scale]
    traced = bool(args.trace)
    tracer = layer_trace.LayerTracer(layer_trace.agora_targets())

    # --- set-up 1 (untraced), then the check window in the other mode --
    # With --trace 0 the wrappers go on after this build, so the replay
    # of the check window is traced; with --trace 1 it stays untraced.
    session, elapsed, __ = set_up(workload, args.seed, scale, None)
    setup_times = [elapsed]
    replay_tracer = None if traced else tracer
    if replay_tracer is not None:
        session.pause = pauser(replay_tracer)
        replay_tracer.install()
    try:
        replay = drive(session, 0.0, scale.check, scale.check, replay_tracer)
    finally:
        tracer.uninstall()
    session = None  # release the agora before the next build

    # --- set-ups 2..SETUPS and the measured run ---------------------------
    main_tracer = tracer if traced else None
    if main_tracer is not None:
        main_tracer.install()
    try:
        for __ in range(SETUPS - 1):
            session = None
            session, elapsed, setup_layers = set_up(workload, args.seed, scale, main_tracer)
            setup_times.append(elapsed)
        main_drive = drive(session, args.seconds, scale.check, scale.quality, main_tracer)
    finally:
        if main_tracer is not None:
            main_tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    config = config_digest(session.config)
    session = None

    # --- checks --------------------------------------------------------
    assert main_drive.checkpoint is not None and replay.checkpoint is not None
    problems = main_drive.problems + replay.problems
    if replay.answer_hashes != main_drive.answer_hashes[:scale.check]:
        problems.append("answers differ between the traced and untraced runs")
    main_counts = {n: main_drive.checkpoint.counters.get(n, 0.0) for n in COUNTERS}
    replay_counts = {n: replay.checkpoint.counters.get(n, 0.0) for n in COUNTERS}
    if main_counts != replay_counts:
        problems.append("program counters differ between the traced and untraced runs")
    if main_drive.checkpoint.manifest_digest != replay.checkpoint.manifest_digest:
        problems.append("run-manifest digests differ between the traced and untraced runs")
    correct = not problems

    if traced:
        metrics = layer_metrics(setup_layers, main_drive, scale.check, replay.checkpoint.busy)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(setup_times, main_drive, peak_rss_mb)
        units = END_TO_END

    # --- report ---------------------------------------------------------
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "commit": commit(),
        "src_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "config_digest": config,
        "manifest_digest": main_drive.checkpoint.manifest_digest,
        "answer_digest": main_drive.answer_digest,
        "check_asks": scale.check,
        "quality_asks": scale.quality,
        "timed_asks": len(main_drive.latencies),
        "setup_samples_s": [round(s, 6) for s in setup_times],
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(main_drive.latencies)} timed asks, {main_drive.failed} failed")
    print("ask latency ms: " + ", ".join(
        f"p{q} {value:.2f}" for q, value in latency_percentiles(main_drive.latencies).items()
    ))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(main_drive.latencies),
        "failed": main_drive.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
