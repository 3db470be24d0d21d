"""Observability overhead: the T2 availability scenario, tracing on vs off.

Runs the same seeded scenario several ways and compares wall-clock cost:

- ``off``      — ``enable_tracing=False`` (the default): the kernel hot
  loop only pays a ``tracer is None`` branch check.
- ``tracing``  — causal spans + per-event kernel accounting on.
- ``profiler`` — tracing plus the sim-time profiler hooked into kernel
  dispatch (one dict update per event).
- ``dashboard``— tracing on, plus rendering the markdown dashboard and
  exporting the full artifact set (the worst case a benchmark run pays).

A second, events-driven series schedules the queries on the virtual
timeline (the scenario above resolves queries synchronously, so it never
exercises the per-event hooks) and times only the kernel run:

- ``events-tracing`` — the timeline scenario with causal tracing on.
- ``events-flight``  — the same timeline with the flight recorder also
  on (one canonical-JSON append + rolling digest update per event).
- ``kernel-tracing`` / ``kernel-flight`` — a 4000-event dispatch-only
  loop whose callbacks do almost nothing: the recorder's adversarial
  worst case, reported for visibility but not gated.

The acceptance bars: tracing *off* stays within noise of the
pre-observability kernel, profiler-on stays under 2x the tracing-only
cost, and the flight recorder stays under 1.5x the tracing-only cost on
the events-driven scenario — asserted loosely here (wall-clock in CI is
jittery) and recorded precisely in the benchmark report.
"""

import time

import numpy as np
import pytest

from repro import Consumer, UserProfile, build_agora
from repro.experiments import ExperimentResult, render_run_dashboard
from repro.obs import SpanTracer
from repro.obs.flight import FlightRecorder
from repro.resilience import ResilienceConfig
from repro.sim import Simulator
from repro.workloads import QueryWorkloadGenerator


def run_scenario(seed=23, n_sources=10, n_queries=10, availability=0.5,
                 enable_tracing=False, enable_profiling=False):
    agora = build_agora(seed=seed, n_sources=n_sources, items_per_source=12,
                        calibration_pairs=0, enable_tracing=enable_tracing,
                        enable_profiling=enable_profiling)
    rng = np.random.default_rng(seed + 1)
    for node in agora.topology.nodes[:-1]:  # keep the consumer node up
        agora.health.set_state(node, bool(rng.random() < availability))
    workload = QueryWorkloadGenerator(
        agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("t2"),
    )
    profile = UserProfile(
        user_id="obs-user",
        interests=agora.topic_space.basis("folk-jewelry", 0.9),
    )
    consumer = Consumer(agora, profile, planner="trading",
                        resilience=ResilienceConfig.default_enabled())
    for index in range(n_queries):
        topic = agora.topic_space.names[index % 5]
        consumer.ask(workload.topic_query(topic, k=10))
    return agora


#: Virtual-time spacing between scheduled queries in the events series.
QUERY_SPACING = 5.0


def events_run_seconds(seed=23, n_queries=8, flight=False, repeats=3):
    """Best-of-N seconds for the *kernel run* of the timeline scenario.

    Builds a fresh agora per repeat (a consumed timeline cannot be
    re-run) and times only ``agora.run`` — the region the flight
    recorder actually hooks — with churn on so background events
    interleave with the scheduled queries.
    """
    best = float("inf")
    for __ in range(repeats):
        agora = build_agora(seed=seed, n_sources=8, items_per_source=12,
                            calibration_pairs=0, enable_tracing=True,
                            enable_churn=True, enable_flight_recorder=flight)
        workload = QueryWorkloadGenerator(
            agora.topic_space, agora.vocabulary, agora.sim.rng.spawn("t2"),
        )
        profile = UserProfile(
            user_id="obs-user",
            interests=agora.topic_space.basis("folk-jewelry", 0.9),
        )
        consumer = Consumer(agora, profile, planner="trading",
                            resilience=ResilienceConfig.default_enabled())
        queries = [
            workload.topic_query(agora.topic_space.names[index % 5], k=10)
            for index in range(n_queries)
        ]
        assert agora.tracer is not None
        with agora.tracer.span("drive"):
            for index, query in enumerate(queries):
                agora.sim.schedule(
                    QUERY_SPACING * index + QUERY_SPACING / 2,
                    (lambda q=query, c=consumer: c.ask(q)),
                    tag=f"query-{index}",
                )
        horizon = QUERY_SPACING * (n_queries + 1)
        started = time.perf_counter()  # agora: ignore[AGR001] measures real runtime
        agora.run(until=horizon)
        elapsed = time.perf_counter() - started  # agora: ignore[AGR001] measures real runtime
        best = min(best, elapsed)
    return best


def run_event_loop(n_events=4000, flight_on=False, seed=5):
    """A kernel-dispatch loop with per-event RNG draws and spans.

    Every event re-enters its causal span and draws once, so the
    tracing-only and recorder-on timings compare the same real per-event
    work — the delta is exactly the recorder's append path.
    """
    tracer = SpanTracer()
    flight = FlightRecorder() if flight_on else None
    sim = Simulator(seed=seed, tracer=tracer, flight=flight)
    rng = sim.rng.stream("bench")

    def worker():
        for __ in range(n_events):
            rng.random()
            yield 0.01

    with tracer.span("bench"):
        sim.process(worker(), tag="bench")
    sim.run()
    assert sim.processed >= n_events
    return sim


def timed(fn, repeats=3):
    """Best-of-N wall-clock seconds (best-of to shed scheduler noise)."""
    best = float("inf")
    for __ in range(repeats):
        started = time.perf_counter()  # agora: ignore[AGR001] measures real runtime
        fn()
        elapsed = time.perf_counter() - started  # agora: ignore[AGR001] measures real runtime
        best = min(best, elapsed)
    return best


def run_overhead(seed=23, repeats=3) -> ExperimentResult:
    result = ExperimentResult(
        "OBS", "Observability overhead on the T2 availability scenario",
        ["mode", "best_seconds", "vs_off", "spans", "metrics"],
    )
    off = timed(lambda: run_scenario(seed=seed), repeats)
    on = timed(lambda: run_scenario(seed=seed, enable_tracing=True), repeats)
    profiled = timed(
        lambda: run_scenario(seed=seed, enable_tracing=True,
                             enable_profiling=True),
        repeats,
    )

    def full():
        agora = run_scenario(seed=seed, enable_tracing=True)
        render_run_dashboard(agora, title="overhead probe")

    dashboard = timed(full, repeats)

    traced = run_scenario(seed=seed, enable_tracing=True)
    spans = traced.tracer.span_count
    metric_count = (
        len(traced.sim.metrics.counters())
        + len(traced.sim.metrics.gauges())
        + len(traced.sim.metrics.histograms())
    )

    events_tracing = events_run_seconds(seed=seed, repeats=repeats)
    events_flight = events_run_seconds(seed=seed, flight=True, repeats=repeats)
    kernel_tracing = timed(lambda: run_event_loop(), repeats)
    kernel_flight = timed(lambda: run_event_loop(flight_on=True), repeats)

    result.add_row("off", round(off, 4), 1.0, 0, 0)
    result.add_row("tracing", round(on, 4), round(on / off, 3), spans,
                   metric_count)
    result.add_row("profiler", round(profiled, 4), round(profiled / off, 3),
                   spans, metric_count)
    result.add_row("dashboard", round(dashboard, 4), round(dashboard / off, 3),
                   spans, metric_count)
    result.add_row("events-tracing", round(events_tracing, 4), 1.0, 1, 0)
    result.add_row(
        "events-flight", round(events_flight, 4),
        round(events_flight / events_tracing, 3), 1, 0,
    )
    result.add_row("kernel-tracing", round(kernel_tracing, 4), 1.0, 1, 0)
    result.add_row(
        "kernel-flight", round(kernel_flight, 4),
        round(kernel_flight / kernel_tracing, 3), 1, 0,
    )
    result.add_note(
        "vs_off is the wall-clock ratio against tracing disabled; the "
        "acceptance bars are off-mode overhead <= 5% vs the seed kernel "
        "and profiler-on < 2x the tracing-only cost"
    )
    result.add_note(
        "events-*/kernel-* rows time the kernel run only and their "
        "vs_off column is the ratio against the matching tracing-only "
        "row; the flight-recorder acceptance bar is events-flight < "
        "1.5x events-tracing (kernel-flight is the dispatch-only worst "
        "case, reported for visibility but ungated)"
    )
    return result


@pytest.mark.benchmark(group="OBS")
def test_obs_overhead(benchmark):
    result = benchmark.pedantic(run_overhead, rounds=1, iterations=1)
    result.print()
    by_mode = {row[0]: row for row in result.rows}
    # Wall-clock in shared CI is noisy: assert only that tracing does not
    # blow the run up (the precise numbers live in the report).
    assert by_mode["tracing"][2] < 2.0
    assert by_mode["dashboard"][2] < 2.5
    assert by_mode["tracing"][3] > 0  # spans actually recorded
    # Profiler-on must stay under 2x the tracing-only wall clock.
    assert by_mode["profiler"][1] < 2.0 * by_mode["tracing"][1]
    # The flight recorder must stay under 1.5x the tracing-only cost on
    # the events-driven scenario (its vs_off column holds that ratio).
    assert by_mode["events-flight"][2] < 1.5


if __name__ == "__main__":
    run_overhead().print()
