"""Per-source circuit breakers.

A breaker protects consumers from repeatedly paying the round-trip cost of
a source that keeps declining or breaching: after ``failure_threshold``
consecutive failures the breaker *opens* and the source is skipped
outright; after ``recovery_time`` of virtual time it *half-opens* and
admits a limited number of probe requests; probes decide whether it closes
again or re-opens.

Breakers are fed from two directions: execution-time declines (via
:meth:`BreakerBoard.record_failure`) and settlement-time compliance events
from the :class:`repro.qos.monitor.ContractMonitor` (via
:meth:`BreakerBoard.observe_compliance`).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional

from repro.resilience.policy import BreakerPolicy
from repro.sim.trace import TraceRecorder

NowFn = Callable[[], float]


class BreakerState(enum.Enum):
    """The classic three breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """State machine guarding one source.

    Transitions:

    - CLOSED → OPEN after ``failure_threshold`` consecutive failures;
    - OPEN → HALF_OPEN once ``recovery_time`` has elapsed (evaluated
      lazily inside :meth:`allow`);
    - HALF_OPEN → CLOSED after ``half_open_trials`` consecutive probe
      successes, → OPEN again on any probe failure.
    """

    def __init__(self, policy: BreakerPolicy, now_fn: NowFn):
        self.policy = policy
        self._now = now_fn
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._opened_at = 0.0

    # ------------------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        """Current state (after lazy OPEN → HALF_OPEN promotion)."""
        self._maybe_half_open()
        return self._state

    def allow(self) -> bool:
        """Whether a request may be sent to the guarded source now."""
        return self.state is not BreakerState.OPEN

    def record_success(self) -> None:
        """Note a successful (non-declined, compliant) interaction."""
        self._maybe_half_open()
        self._consecutive_failures = 0
        if self._state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.policy.half_open_trials:
                self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        """Note a decline, breach, or other failed interaction."""
        self._maybe_half_open()
        if self._state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.OPEN)
            return
        if self._state is BreakerState.CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.policy.failure_threshold:
                self._transition(BreakerState.OPEN)

    # ------------------------------------------------------------------
    def _maybe_half_open(self) -> None:
        if (
            self._state is BreakerState.OPEN
            and self._now() - self._opened_at >= self.policy.recovery_time
        ):
            self._transition(BreakerState.HALF_OPEN)

    def _transition(self, new_state: BreakerState) -> None:
        if new_state is self._state:
            return
        self._state = new_state
        if new_state is BreakerState.OPEN:
            self._opened_at = self._now()
            self._consecutive_failures = 0
            self._probe_successes = 0
        elif new_state is BreakerState.HALF_OPEN:
            self._probe_successes = 0
        else:  # CLOSED
            self._consecutive_failures = 0

    def __repr__(self) -> str:
        return f"CircuitBreaker(state={self._state.value!r})"


class BreakerBoard:
    """One breaker per source, shared across an agora's consumers.

    Register :meth:`observe_compliance` on the contract monitor so SLA
    breaches trip breakers the same way execution-time declines do.
    """

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        now_fn: NowFn = lambda: 0.0,
        trace: Optional[TraceRecorder] = None,
    ):
        self.policy = policy if policy is not None else BreakerPolicy()
        self._now = now_fn
        self._trace = trace
        self._breakers: Dict[str, CircuitBreaker] = {}

    # ------------------------------------------------------------------
    def breaker(self, source_id: str) -> CircuitBreaker:
        """The breaker guarding ``source_id`` (created closed on demand)."""
        if source_id not in self._breakers:
            self._breakers[source_id] = CircuitBreaker(self.policy, self._now)
        return self._breakers[source_id]

    def allow(self, source_id: str) -> bool:
        """Whether requests to ``source_id`` are currently admitted."""
        return self.breaker(source_id).allow()

    # ------------------------------------------------------------------
    def record_success(self, source_id: str) -> None:
        """Fold an execution-time success into the breaker."""
        self._observe(source_id, ok=True)

    def record_failure(self, source_id: str) -> None:
        """Fold an execution-time decline into the breaker."""
        self._observe(source_id, ok=False)

    def observe_compliance(self, source_id: str, compliance: float) -> None:
        """Contract-monitor listener: low compliance counts as a failure."""
        self._observe(source_id, ok=compliance >= self.policy.compliance_floor)

    def _observe(self, source_id: str, ok: bool) -> None:
        breaker = self.breaker(source_id)
        before = breaker.state
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()
        after = breaker.state
        if before is not after and self._trace is not None:
            self._trace.count(f"resilience.breaker_{after.value}")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._breakers)
