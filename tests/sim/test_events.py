"""Tests for the event queue."""

import pytest

from repro.sim.events import EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(2.0, lambda: None, tag="late")
        queue.push(1.0, lambda: None, tag="early")
        assert queue.pop().tag == "early"
        assert queue.pop().tag == "late"

    def test_ties_broken_by_priority_then_sequence(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None, priority=1, tag="low")
        queue.push(1.0, lambda: None, priority=0, tag="high")
        queue.push(1.0, lambda: None, priority=0, tag="high2")
        assert queue.pop().tag == "high"
        assert queue.pop().tag == "high2"
        assert queue.pop().tag == "low"

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(-0.5, lambda: None)

    def test_len_counts_live_events(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        queue.pop()
        assert len(queue) == 1

    def test_empty_queue_is_falsy(self):
        queue = EventQueue()
        assert not queue
        queue.push(1.0, lambda: None)
        assert queue
