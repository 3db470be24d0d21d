"""Discrete-event simulation kernel.

The :class:`Simulator` owns a virtual clock and an event queue.  Components
schedule callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.at` (absolute time) and the kernel executes them in
deterministic time order.  Generator-based processes are supported through
:meth:`Simulator.process`: the generator yields delays (floats) and is
resumed after each delay elapses.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.obs.flight import FlightRecorder, callback_identity
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SimProfiler
from repro.obs.spans import SpanTracer
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder


class SimulationError(RuntimeError):
    """Raised for invalid kernel operations (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for the simulation's random streams (see
        :class:`repro.sim.rng.RngStreams`).
    trace:
        Optional trace recorder; a fresh one is created when omitted.
    tracer:
        Optional causal span tracer.  When attached, the kernel binds it
        to the virtual clock, captures the active span at every
        ``schedule``/``at`` call, and resumes that span around the
        callback's execution — so spans opened inside a callback parent
        onto whatever caused the callback, not onto the event loop.
        ``None`` (the default) keeps the hot loop branch-only: no
        per-event tracing work happens at all.
    profiler:
        Optional sim-time profiler.  When attached, the kernel reports
        every dispatched event's causal span id and the advanced clock
        to :meth:`repro.obs.profile.SimProfiler.record`, attributing
        elapsed sim time and event counts to span stacks.  ``None`` (the
        default) keeps the hot loop branch-only, mirroring ``tracer``.
    flight:
        Optional flight recorder.  When attached, the kernel binds the
        RNG draw-counter accessors and appends one record per dispatched
        event — *after* the callback runs, so a record's ``draws`` total
        reflects the randomness the event consumed — to
        :meth:`repro.obs.flight.FlightRecorder.record`.  ``None`` (the
        default) keeps the hot loop branch-only, mirroring ``tracer``.

    Example
    -------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(
        self,
        seed: int = 0,
        trace: Optional[TraceRecorder] = None,
        tracer: Optional[SpanTracer] = None,
        profiler: Optional[SimProfiler] = None,
        flight: Optional[FlightRecorder] = None,
    ):
        self.now: float = 0.0
        self.rng = RngStreams(seed)
        self.trace = trace if trace is not None else TraceRecorder()
        self.tracer = tracer
        self.profiler = profiler
        self.flight = flight
        if tracer is not None:
            tracer.bind_clock(lambda: self.now)
        if flight is not None:
            flight.bind_rng(
                draw_total=lambda: self.rng.draw_total,
                draw_counts=self.rng.draw_counts,
            )
        self._queue = EventQueue()
        self._running = False
        self._processed = 0

    @property
    def metrics(self) -> MetricsRegistry:
        """The metrics registry backing this simulator's trace recorder."""
        return self.trace.metrics

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        action: Callable[[], Any],
        priority: int = 0,
        tag: str = "",
    ) -> Event:
        """Schedule ``action`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        span_id = self.tracer.current_id if self.tracer is not None else None
        return self._queue.push(
            self.now + delay, action, priority=priority, tag=tag, span_id=span_id
        )

    def at(
        self,
        time: float,
        action: Callable[[], Any],
        priority: int = 0,
        tag: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        span_id = self.tracer.current_id if self.tracer is not None else None
        return self._queue.push(
            time, action, priority=priority, tag=tag, span_id=span_id
        )

    def process(self, generator: Generator[float, None, Any], tag: str = "") -> None:
        """Drive a generator-based process.

        The generator yields non-negative floats interpreted as delays; the
        kernel resumes the generator after each delay.  The process ends when
        the generator is exhausted.
        """

        def step() -> None:
            try:
                delay = next(generator)
            except StopIteration:
                return
            if delay < 0:
                raise SimulationError(f"process yielded negative delay {delay}")
            self.schedule(delay, step, tag=tag)

        step()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events in order until the queue drains or limits are reached.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time.
            The clock is advanced to ``until`` when given.
        max_events:
            Stop after processing this many events.

        Returns
        -------
        int
            The number of events processed by this call.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        processed = 0
        tracer = self.tracer
        profiler = self.profiler
        flight = self.flight
        if flight is not None:
            # Baseline the RNG draw counters before the first dispatch so
            # the recording accounts the run, not construction.
            flight.start()
        try:
            while True:
                if max_events is not None and processed >= max_events:
                    break
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                event = self._queue.pop()
                assert event is not None
                self.now = event.time
                if profiler is not None:
                    profiler.record(event.span_id, self.now)
                if tracer is not None and event.span_id is not None:
                    # Re-enter the causal context the event was scheduled
                    # under so spans opened by the callback parent onto
                    # their true cause across the queue boundary.
                    tracer.resume(event.span_id)
                    try:
                        event.action()
                    finally:
                        tracer.release()
                else:
                    event.action()
                if flight is not None:
                    flight.record(
                        event.seq,
                        self.now,
                        event.tag,
                        callback_identity(event.action),
                        event.span_id,
                    )
                if tracer is not None:
                    self.trace.count("sim.events")
                processed += 1
        finally:
            self._running = False
        if until is not None and until > self.now:
            self.now = until
        self._processed += processed
        return processed

    @property
    def processed(self) -> int:
        """Total number of events processed over the simulator's lifetime."""
        return self._processed

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.3f}, pending={len(self._queue)}, "
            f"processed={self._processed})"
        )
