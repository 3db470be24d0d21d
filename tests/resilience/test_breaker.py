"""Tests for the circuit-breaker state machine and the shared board."""

import pytest

from repro.qos import QoSRequirement, QoSVector
from repro.qos.monitor import ContractMonitor
from repro.qos.sla import SLAContract
from repro.resilience import BreakerBoard, BreakerPolicy, BreakerState, CircuitBreaker


class Clock:
    """A settable virtual clock for breaker tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return Clock()


def make_breaker(clock, failure_threshold=3, recovery_time=10.0, half_open_trials=1):
    policy = BreakerPolicy(
        failure_threshold=failure_threshold,
        recovery_time=recovery_time,
        half_open_trials=half_open_trials,
    )
    return CircuitBreaker(policy, clock)


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self, clock):
        breaker = make_breaker(clock)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self, clock):
        breaker = make_breaker(clock, failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_success_resets_failure_streak(self, clock):
        breaker = make_breaker(clock, failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_opens_after_recovery_time(self, clock):
        breaker = make_breaker(clock, failure_threshold=1, recovery_time=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 9.9
        assert breaker.state is BreakerState.OPEN
        clock.now = 10.0
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()

    def test_probe_success_closes(self, clock):
        breaker = make_breaker(clock, failure_threshold=1, recovery_time=5.0)
        breaker.record_failure()
        clock.now = 6.0
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_probe_failure_reopens_and_resets_timer(self, clock):
        breaker = make_breaker(clock, failure_threshold=1, recovery_time=5.0)
        breaker.record_failure()
        clock.now = 6.0
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.now = 10.0  # only 4 units since re-open: still open
        assert breaker.state is BreakerState.OPEN
        clock.now = 11.0
        assert breaker.state is BreakerState.HALF_OPEN

    def test_multiple_probe_trials_required(self, clock):
        breaker = make_breaker(
            clock, failure_threshold=1, recovery_time=1.0, half_open_trials=2
        )
        breaker.record_failure()
        clock.now = 2.0
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED


class TestBreakerBoard:
    def test_sources_are_isolated(self, clock):
        board = BreakerBoard(BreakerPolicy(failure_threshold=1), clock)
        board.record_failure("bad")
        assert not board.allow("bad")
        assert board.allow("good")

    def test_compliance_events_trip_breaker(self, clock):
        board = BreakerBoard(
            BreakerPolicy(failure_threshold=2, compliance_floor=0.5), clock
        )
        board.observe_compliance("s1", 0.9)  # fine
        board.observe_compliance("s1", 0.2)
        board.observe_compliance("s1", 0.1)
        assert board.breaker("s1").state is BreakerState.OPEN

    def test_contract_monitor_wiring(self, clock):
        """Settlement compliance flows into breakers via on_compliance."""
        monitor = ContractMonitor()
        board = BreakerBoard(
            BreakerPolicy(failure_threshold=1, compliance_floor=0.99), clock
        )
        monitor.on_compliance(board.observe_compliance)
        contract = SLAContract(
            provider_id="flaky-src", consumer_id="iris", job_id="j1",
            requirement=QoSRequirement(min_completeness=0.9),
            base_price=1.0,
        )
        terrible = QoSVector(response_time=99.0, completeness=0.0,
                             freshness=0.0, correctness=0.0, trust=0.0)
        monitor.settle(contract, terrible)
        assert board.breaker("flaky-src").state is BreakerState.OPEN
