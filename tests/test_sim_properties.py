"""Property-based tests of the simulation kernel, and of the one queue
built on it: a switch's per-connection inbox."""

from __future__ import annotations

import heapq
import itertools
import math

from hypothesis import given, settings, strategies as st

from repro.core import DgmcNetwork, JoinEvent, ProtocolConfig
from repro.core.lsa import McEvent, McLsa
from repro.core.mc import Role
from repro.core.timestamp import Stamp
from repro.sim.kernel import Facility, Hold, Process, Simulator
from repro.topo.generators import grid_network
from tests.batches import recorded_batches


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


CID = 1
TC = 1.5


def isolated_switch():
    """Switch 0 of a two-switch line whose one link is down, already a
    member: its floods reach nobody, so every LSA it drains is one the
    test delivered; and since ``R[0] = 1``, an LSA whose sender had not
    heard of that join makes ReceiveLSA() hold the CPU for Tc."""
    net = grid_network(1, 2)
    net.set_link_state(0, 1, up=False)
    dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=TC, per_hop_delay=0.25))
    dgmc.register_symmetric(CID)
    dgmc.inject(JoinEvent(0, CID), at=0.0)
    dgmc.run()
    return dgmc, dgmc.switches[0]


def event_lsas(count):
    """Switch 1 joins and leaves in turn: event LSAs with indices 1, 2, ..."""
    return [
        McLsa(1, McEvent.JOIN, CID, None, Stamp.from_dense((0, i)), role=Role.BOTH)
        if i % 2
        else McLsa(1, McEvent.LEAVE, CID, None, Stamp.from_dense((0, i)))
        for i in range(1, count + 1)
    ]


class TestMailboxProperties:
    @given(st.lists(st.integers(0, 4), max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_all_messages_delivered_exactly_once(self, gaps):
        """Whether a delivery finds ReceiveLSA() idle, woken-but-not-yet-run
        (gap 0) or holding the CPU for Tc (gaps 1 and 2 fall inside 1.5),
        every LSA is drained once, in delivery order."""
        dgmc, switch = isolated_switch()
        lsas = event_lsas(len(gaps))
        at = dgmc.sim.now
        for lsa, gap in zip(lsas, gaps):
            at += gap
            dgmc.sim.schedule_at(at, lambda lsa=lsa: switch.deliver_mc_lsa(lsa))
        with recorded_batches(switch) as batches:
            dgmc.run()
        assert [lsa for _, batch in batches for lsa in batch] == lsas
        assert all(batch for _, batch in batches)
        assert switch.mailboxes_empty and not switch.inflight_computes

    @given(st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_single_consumer_preserves_order(self, count):
        """LSAs delivered at one instant are one wake and one batch."""
        dgmc, switch = isolated_switch()
        lsas = event_lsas(count)
        for lsa in lsas:
            switch.deliver_mc_lsa(lsa)
        assert switch.queued_lsas(CID) == lsas and dgmc.sim.queue_depth == 1
        with recorded_batches(switch) as batches:
            dgmc.sim.run_instant()
        assert batches == [(dgmc.sim.now, lsas)]
        assert switch.mailboxes_empty


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
    cpu = Facility(sim)

    def worker(tag, hold):
        yield cpu.request()
        log.append(("cpu", tag, sim.now))
        yield Hold(hold)
        cpu.release()  # hands over to the oldest waiter, if any

    def perform(ops):
        for kind, delay, tag, extra in ops:
            if kind == "cpu":
                sim.spawn(worker(tag, delay))
            else:
                def action(tag=tag, nested=extra):
                    log.append(("run", tag, sim.now))
                    perform(nested)  # re-entrant scheduling

                if kind == "schedule":
                    sim.schedule(delay, action)
                else:
                    sim.schedule_at(sim.now + delay, action)

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
