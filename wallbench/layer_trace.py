# module: benchmarks.wallbench.layer_trace
"""Outside-in per-layer host timing for the wall-clock benchmark.

The program under test reads no host clock.  This module wraps the public
entry point of each layer from the outside (class attributes are swapped
for timing wrappers while a traced run is active and restored after), so
the library itself is never edited to be measured.

Each wrapper records one span: inclusive time, self time (the span minus
the time of wrapped spans it directly contains), the call count, and an
optional work count read from the call's arguments or result.  Spans nest
through a plain stack; the benchmark drives the agora from one thread, so
no locking is needed.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``observe(args, kwargs, result) -> dict of extra counts`` for one call
Observer = Callable[[tuple, dict, Any], Dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner.attr`` recorded as span ``span``."""

    owner: type
    attr: str
    span: str
    observe: Optional[Observer] = None


@dataclass
class LayerSnapshot:
    """Cumulative span totals at one instant (seconds and counts)."""

    inclusive: Dict[str, float]
    self_time: Dict[str, float]
    calls: Dict[str, float]
    counts: Dict[str, float]

    def minus(self, base: "LayerSnapshot") -> "LayerSnapshot":
        """Totals accumulated since ``base`` was taken."""

        def diff(now: Dict[str, float], then: Dict[str, float]) -> Dict[str, float]:
            return {key: value - then.get(key, 0.0) for key, value in now.items()}

        return LayerSnapshot(
            inclusive=diff(self.inclusive, base.inclusive),
            self_time=diff(self.self_time, base.self_time),
            calls=diff(self.calls, base.calls),
            counts=diff(self.counts, base.counts),
        )


class LayerTracer:
    """Span recorder installed over a set of :class:`Target` entry points.

    ``paused`` lets the benchmark call library code for its own purposes
    (minting workload inputs) without that time landing in a layer.
    """

    def __init__(self, targets: List[Target]):
        self.targets = targets
        self.paused = False
        self._stack: List[List[float]] = []
        self._inclusive: Dict[str, float] = defaultdict(float)
        self._self: Dict[str, float] = defaultdict(float)
        self._calls: Dict[str, float] = defaultdict(float)
        self._counts: Dict[str, float] = defaultdict(float)
        self._saved: List[Tuple[type, str, Optional[Any]]] = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Swap every target for its timing wrapper (idempotent)."""
        if self._saved:
            return
        for target in self.targets:
            original = target.owner.__dict__.get(target.attr)
            function = getattr(target.owner, target.attr)
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(target, function))

    def uninstall(self) -> None:
        """Restore the original class attributes (idempotent)."""
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved = []

    # -- recording -------------------------------------------------------
    def _wrap(self, target: Target, function: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        span = target.span
        observe = target.observe

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.paused:
                return function(*args, **kwargs)
            frame = [0.0]  # time covered by wrapped child spans
            tracer._stack.append(frame)
            started = time.perf_counter()  # agora: ignore[AGR001] measures host time
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started  # agora: ignore[AGR001] measures host time
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer._inclusive[span] += elapsed
                tracer._self[span] += elapsed - frame[0]
                tracer._calls[span] += 1
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    tracer._counts[key] += value
            return result

        return wrapper

    def snapshot(self) -> LayerSnapshot:
        """Copy of the cumulative totals so far."""
        return LayerSnapshot(
            inclusive=dict(self._inclusive),
            self_time=dict(self._self),
            calls=dict(self._calls),
            counts=dict(self._counts),
        )


def agora_targets() -> List[Target]:
    """The layer entry points the benchmark times, one span name each.

    Imported lazily so this module loads without the library on the path.
    """
    from repro.core.agora import Agora
    from repro.core.consumer import Consumer
    from repro.data.corpus import CorpusGenerator
    from repro.multimodal.feeds import FeedService
    from repro.obs.flight import FlightRecorder
    from repro.obs.profile import SimProfiler
    from repro.optimizer.search import ExhaustiveSearch
    from repro.optimizer.trading import TradingOptimizer
    from repro.personalization.ranking import PersonalizedRanker
    from repro.qos.monitor import ContractMonitor
    from repro.query.execution import QueryExecutor
    from repro.query.oracle import RelevanceOracle
    from repro.sim.kernel import Simulator
    from repro.sources.source import InformationSource
    from repro.uncertainty.matching import MatchingEngine
    from repro.uncertainty.results import UncertainResultSet

    def audited(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
        returned = kwargs["returned"] if "returned" in kwargs else args[2]
        reachable = kwargs["reachable"] if "reachable" in kwargs else args[3]
        return {"audit_items": float(len(returned) + len(reachable))}

    def answered(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
        return {"declines": 1.0 if result.declined else 0.0}

    def ingested(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
        return {"items_ingested": float(result)}

    def dispatched(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
        return {"events": float(result)}

    return [
        Target(Agora, "__init__", "core.build"),
        Target(Consumer, "ask", "core.ask"),
        Target(TradingOptimizer, "negotiate", "optimizer.plan"),
        Target(ExhaustiveSearch, "search", "optimizer.plan"),
        Target(QueryExecutor, "execute", "query.execute"),
        Target(UncertainResultSet, "merge", "query.merge"),
        Target(RelevanceOracle, "delivered_qos", "query.audit", audited),
        Target(MatchingEngine, "rank_block_topk", "uncertainty.match"),
        Target(MatchingEngine, "prepare", "uncertainty.prepare"),
        Target(InformationSource, "answer", "sources.answer", answered),
        Target(InformationSource, "ingest", "sources.ingest", ingested),
        Target(ContractMonitor, "settle", "qos.settle"),
        Target(ContractMonitor, "record_cancellation", "qos.settle"),
        Target(PersonalizedRanker, "rerank_items", "personalization.rerank"),
        Target(Simulator, "run", "sim.run", dispatched),
        Target(FeedService, "on_new_item", "multimodal.feed_screen"),
        Target(CorpusGenerator, "generate", "data.generate"),
        Target(FlightRecorder, "record", "obs.flight_record"),
        Target(SimProfiler, "record", "obs.profiler_record"),
    ]
