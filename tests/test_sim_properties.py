"""Property-based tests of the simulation kernel itself."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Facility, Hold, Mailbox, Receive, Simulator


class TestEventOrdering:
    @given(st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_dispatch_times_nondecreasing(self, delays):
        sim = Simulator()
        seen = []
        for d in delays:
            sim.schedule(d, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_same_instant_entries_run_in_schedule_order(self, delays):
        """Ties break by schedule order: dispatch is a stable sort by time."""
        sim = Simulator()
        seen = []
        for i, d in enumerate(delays):
            sim.schedule(float(d), lambda i=i: seen.append(i))
        sim.run()
        assert seen == sorted(range(len(delays)), key=lambda i: delays[i])


class TestMailboxProperties:
    @given(st.lists(st.tuples(st.integers(), st.integers(0, 4)), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_all_messages_delivered_exactly_once(self, sends):
        """Whether a send finds the consumer parked, woken-but-not-yet-run
        or busy, every message arrives once, in send order."""
        sim = Simulator()
        box = Mailbox(sim)
        got = []

        def consumer():
            while True:
                got.append((yield Receive(box)))
                yield Hold(1.5)

        sim.spawn(consumer())
        at = 0.0
        for m, gap in sends:
            at += gap
            sim.schedule(at, lambda m=m: box.send(m))
        sim.run()
        assert got == [m for m, _ in sends]

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_single_consumer_preserves_order(self, messages):
        sim = Simulator()
        box = Mailbox(sim)
        got = []

        def consumer():
            while True:
                got.append((yield Receive(box)))

        sim.spawn(consumer())
        for m in messages:
            box.send(m)
        sim.run()
        assert got == messages


class TestFacilityProperties:
    @given(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_capacity_never_exceeded(self, services):
        sim = Simulator()
        fac = Facility(sim)
        concurrent = [0]
        peak = [0]

        def worker(service):
            yield fac.request()
            concurrent[0] += 1
            peak[0] = max(peak[0], concurrent[0])
            yield Hold(service)
            concurrent[0] -= 1
            fac.release()

        for s in services:
            sim.spawn(worker(s))
        sim.run()
        assert peak[0] == 1
        assert concurrent[0] == 0
        assert not fac.busy

    @given(st.lists(st.floats(0.1, 3.0), min_size=2, max_size=20))
    @settings(max_examples=20, deadline=None)
    def test_single_server_time_is_sum_of_services(self, services):
        sim = Simulator()
        fac = Facility(sim)

        def worker(service):
            yield fac.request()
            yield Hold(service)
            fac.release()

        for s in services:
            sim.spawn(worker(s))
        end = sim.run()
        assert end == sum(services) or abs(end - sum(services)) < 1e-9
