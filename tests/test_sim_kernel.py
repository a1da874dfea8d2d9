"""Tests for the simulation kernel: event ordering, cancellation, SimEvent."""

from __future__ import annotations

import pytest

from repro.sim.kernel import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_run_in_time_order(self, sim):
        seen = []
        sim.schedule(3.0, lambda: seen.append("c"))
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(2.0, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_events_run_in_schedule_order(self, sim):
        seen = []
        for tag in "abcde":
            sim.schedule(1.0, lambda t=tag: seen.append(t))
        sim.run()
        assert seen == list("abcde")

    def test_priority_breaks_same_time_ties(self, sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append("low"), priority=1)
        sim.schedule(1.0, lambda: seen.append("high"), priority=0)
        sim.run()
        assert seen == ["high", "low"]

    def test_heap_orders_by_tuple_never_by_handle(self, sim):
        """Entries are (time, priority, seq, handle) tuples and seq is
        unique, so the handle -- which defines no order -- is never compared."""
        seen = []
        handles = [
            sim.schedule(1.0, lambda i=i: seen.append(i), priority=i % 2)
            for i in range(50)
        ]
        with pytest.raises(TypeError):
            handles[0] < handles[1]
        sim.run()
        assert seen == list(range(0, 50, 2)) + list(range(1, 50, 2))

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self, sim):
        sim.schedule(1.0, lambda: None)
        hits = []
        sim.schedule_at(5.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [5.0]

    def test_nested_scheduling_from_action(self, sim):
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(1.0, lambda: seen.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [("outer", 1.0), ("inner", 2.0)]

    def test_zero_delay_event_runs_at_current_time(self, sim):
        seen = []
        sim.schedule(0.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.0]


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(10))
        stop = sim.run(until=5.0)
        assert seen == [1]
        assert stop == 5.0
        assert sim.now == 5.0
        sim.run()
        assert seen == [1, 10]

    def test_run_returns_last_event_time_when_drained(self, sim):
        sim.schedule(7.0, lambda: None)
        assert sim.run() == 7.0

    def test_run_empty_heap_is_noop(self, sim):
        assert sim.run() == 0.0

    def test_max_events_limits_dispatch(self, sim):
        seen = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: seen.append(i))
        sim.run(max_events=2)
        assert seen == [0, 1]

    def test_run_is_not_reentrant(self, sim):
        def evil():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, evil)
        sim.run()

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_peek_reports_next_time(self, sim):
        assert sim.peek() is None
        sim.schedule(4.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.peek() == 2.0

    def test_events_dispatched_counter(self, sim):
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_dispatched == 3


class TestCancellation:
    def test_cancelled_event_does_not_run(self, sim):
        seen = []
        entry = sim.schedule(1.0, lambda: seen.append("x"))
        entry.cancel()
        sim.run()
        assert seen == []

    def test_cancelled_event_skipped_by_peek(self, sim):
        entry = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        entry.cancel()
        assert sim.peek() == 2.0

    def test_cancel_is_idempotent(self, sim):
        entry = sim.schedule(1.0, lambda: None)
        entry.cancel()
        entry.cancel()
        sim.run()


class TestSimEvent:
    def test_fire_wakes_waiters_with_value(self, sim):
        ev = sim.event("go")
        got = []
        ev.add_waiter(got.append)
        ev.add_waiter(got.append)
        ev.fire("payload")
        sim.run()
        assert got == ["payload", "payload"]

    def test_waiting_on_fired_event_returns_immediately(self, sim):
        ev = sim.event()
        ev.fire(42)
        got = []
        ev.add_waiter(got.append)
        sim.run()
        assert got == [42]

    def test_double_fire_is_noop(self, sim):
        ev = sim.event()
        ev.fire(1)
        ev.fire(2)
        assert ev.value == 1

    def test_reset_allows_refire(self, sim):
        ev = sim.event()
        ev.fire(1)
        ev.reset()
        assert not ev.fired
        ev.fire(2)
        assert ev.value == 2


class TestQuiescence:
    def test_run_until_quiescent_with_true_check(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run_until_quiescent(lambda: True)
        assert sim.now == 1.0

    def test_run_until_quiescent_deadlock_detection(self, sim):
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_quiescent(lambda: False)

    def test_run_until_quiescent_respects_max_time(self, sim):
        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        sim.run_until_quiescent(lambda: True, max_time=5.5)
        assert sim.now == 5.5


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def trace():
            sim = Simulator()
            seen = []
            import random

            rng = random.Random(99)
            for i in range(50):
                sim.schedule(rng.random() * 10, lambda i=i: seen.append((sim.now, i)))
            sim.run()
            return seen

        assert trace() == trace()
