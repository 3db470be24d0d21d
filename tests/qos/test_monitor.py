"""Tests for the contract monitor."""

import pytest

from repro.qos import ContractMonitor, QoSRequirement, QoSVector, SLAContract


def _contract(provider="p1", consumer="c1"):
    return SLAContract(
        provider_id=provider,
        consumer_id=consumer,
        requirement=QoSRequirement(min_completeness=0.8),
        base_price=10.0,
        premium=1.0,
        compensation=20.0,
    )


class TestMonitor:
    def test_settle_records_ledger(self):
        monitor = ContractMonitor()
        monitor.settle(_contract(), QoSVector(completeness=0.9))
        ledger = monitor.ledger("p1")
        assert ledger.contracts == 1
        assert ledger.breaches == 0
        assert ledger.revenue == pytest.approx(11.0)

    def test_breach_recorded(self):
        monitor = ContractMonitor()
        monitor.settle(_contract(), QoSVector(completeness=0.5))
        ledger = monitor.ledger("p1")
        assert ledger.breaches == 1
        assert ledger.breach_rate == 1.0
        assert ledger.revenue == pytest.approx(11.0 - 20.0)
        assert ledger.compensation_paid == 20.0

    def test_compliance_listener_invoked(self):
        monitor = ContractMonitor()
        signals = []
        monitor.on_compliance(lambda provider, value: signals.append((provider, value)))
        monitor.settle(_contract(), QoSVector(completeness=0.9))
        assert signals == [("p1", 1.0)]

    def test_cancellation_recorded(self):
        monitor = ContractMonitor()
        outcome = monitor.record_cancellation(_contract(), by_provider=True)
        assert outcome.breached
        assert monitor.ledger("p1").breaches == 1

    def test_empty_monitor(self):
        monitor = ContractMonitor()
        assert monitor.ledger("nobody").contracts == 0
