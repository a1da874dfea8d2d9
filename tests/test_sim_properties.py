"""Property-based tests of the simulation kernel itself."""

from __future__ import annotations

import heapq
import itertools
import math

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Facility, Hold, Mailbox, Process, Receive, Simulator


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


class HeapReference:
    """The order contract, literally: one heap of ``(time, seq, action)``."""

    def __init__(self):
        self.now, self.heap, self.seq, self.events_dispatched = 0.0, [], itertools.count(), 0

    def schedule(self, delay, action):
        heapq.heappush(self.heap, (self.now + delay, next(self.seq), action))

    def schedule_at(self, time, action):
        self.schedule(time - self.now, action)

    def spawn(self, body):
        self.schedule(0.0, Process(self, body).resume)

    def peek(self):
        return self.heap[0][0] if self.heap else None

    def step(self, horizon=math.inf):
        if not self.heap or self.heap[0][0] > horizon:
            return False
        time, _, action = heapq.heappop(self.heap)
        self.now = max(self.now, time)
        self.events_dispatched += 1
        action()
        return True

    def run(self, until=None):
        while self.step(math.inf if until is None else until):
            pass
        if self.heap:
            self.now = until
        return self.now

    def run_instant(self):
        horizon, before = self.now + 1e-9, self.events_dispatched
        while self.step(horizon):
            pass
        return self.events_dispatched - before

    def advance_to_next(self):
        if not self.step():
            return None
        self.run_instant()
        return self.now


#: 1e-17 is below one ulp of every clock reading but the first (0.0), so
#: ``now + delay == now`` and ``delay == 0`` disagree; 1e-10 is a distinct
#: time inside ``run_instant``'s 1e-9 horizon.
_DELAYS = st.sampled_from([0.0, 1e-17, 1e-10, 0.5, 1.0])
_TAGS = st.integers(0, 99)


def _ops(children):
    return st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["schedule", "schedule_at"]), _DELAYS, _TAGS, children),
            st.tuples(st.just("send"), _DELAYS, _TAGS, st.integers(0, 1)),
            st.tuples(st.just("cpu"), _DELAYS, _TAGS, st.none()),
        ),
        max_size=4,
    )


_DRIVES = st.one_of(
    st.tuples(st.just("run"), st.one_of(st.none(), _DELAYS)),
    st.tuples(
        st.sampled_from(["step", "run_instant", "advance_to_next", "peek"]), st.none()
    ),
)
_SCRIPTS = st.lists(
    st.tuples(st.recursive(st.just([]), _ops, max_leaves=12), _DRIVES),
    min_size=1,
    max_size=8,
)


def _execute(sim, script):
    """Run ``script`` on ``sim``; everything observable goes into the log."""
    log = []
    boxes = [Mailbox(sim), Mailbox(sim)]
    cpu = Facility(sim)

    def consumer(box):
        while True:
            tag, hold = yield Receive(box)
            log.append(("recv", tag, sim.now))
            yield Hold(hold)  # un-parked meanwhile: sends queue up

    def worker(tag, hold):
        yield cpu.request()
        log.append(("cpu", tag, sim.now))
        yield Hold(hold)
        cpu.release()  # hands over to the oldest waiter, if any

    def perform(ops):
        for kind, delay, tag, extra in ops:
            if kind == "send":
                boxes[extra].send((tag, delay))
            elif kind == "cpu":
                sim.spawn(worker(tag, delay))
            else:
                def action(tag=tag, nested=extra):
                    log.append(("run", tag, sim.now))
                    perform(nested)  # re-entrant scheduling

                if kind == "schedule":
                    sim.schedule(delay, action)
                else:
                    sim.schedule_at(sim.now + delay, action)

    for box in boxes:
        sim.spawn(consumer(box))
    for ops, (drive, arg) in script:
        perform(ops)
        if drive == "run":
            result = sim.run(None if arg is None else sim.now + arg)
        else:
            result = getattr(sim, drive)()
        log.append((drive, result, sim.now, sim.peek(), sim.events_dispatched))
    return log


class TestOrderContract:
    @given(_SCRIPTS)
    @settings(max_examples=300, deadline=None)
    def test_dispatch_equals_a_plain_time_seq_heap(self, script):
        """Zero-delay work skips the heap (:mod:`repro.sim.kernel`), yet the
        action log, every clock reading, every ``peek()`` and the dispatch
        count equal those of a scheduler that is nothing but the heap."""
        assert _execute(Simulator(), script) == _execute(HeapReference(), script)
