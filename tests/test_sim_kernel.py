"""Tests for the simulation kernel: event ordering, run control, safety checks."""

from __future__ import annotations

import heapq

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

    def test_schedule_at_into_the_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_time_going_backwards_is_detected(self, sim):
        """Entries only enter through schedule(), which refuses the past;
        a heap corrupted behind its back must stop the run, not rewind it."""
        sim.schedule(5.0, lambda: None)
        sim.run()
        heapq.heappush(sim._heap, (1.0, -1, lambda: None))
        with pytest.raises(SimulationError, match="backwards"):
            sim.run()

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


class TestPiecewiseDriving:
    """What the live pump and the systematic explorer drive the heap with."""

    def test_run_instant_drains_the_current_instant_only(self, sim):
        seen = []

        def cascade():
            seen.append("a")
            sim.schedule(0.0, lambda: seen.append("b"))

        sim.schedule(0.0, cascade)
        sim.schedule(1.0, lambda: seen.append("later"))
        assert sim.run_instant() == 2
        assert seen == ["a", "b"]
        assert sim.now == 0.0 and sim.peek() == 1.0

    def test_advance_to_next_jumps_and_drains_that_instant(self, sim):
        seen = []
        sim.schedule(2.0, lambda: sim.schedule(0.0, lambda: seen.append("cascade")))
        sim.schedule(2.0, lambda: seen.append("tie"))
        sim.schedule(3.0, lambda: seen.append("later"))
        assert sim.advance_to_next() == 2.0
        assert seen == ["tie", "cascade"]
        assert sim.queue_depth == 1

    def test_advance_to_next_on_empty_heap(self, sim):
        assert sim.advance_to_next() is None


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
