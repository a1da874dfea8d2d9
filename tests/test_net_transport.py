"""Tests for the transport layer: kernel delivery, UDP reliability, faults."""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lsa import McEvent, McLsa
from repro.core.mc import Role
from repro.net import frames
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.transport import RetransmitPolicy, UdpTransport
from repro.obs.context import TraceContext
from repro.trees.base import McTopology, MulticastTree
from tests.stamps import S


def make_lsa(source: int = 0, seq: int = 1) -> McLsa:
    return McLsa(source, McEvent.LEAVE, 1, None, S(seq))


class TestFaultPlan:
    def test_defaults_inactive(self):
        assert not FaultPlan().active

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(loss=1.5)
        with pytest.raises(ValueError):
            FaultPlan(reorder=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(delay=-1.0)

    def test_seeded_drops_are_reproducible(self):
        plan = FaultPlan(loss=0.5, seed=11)
        rolls_a = [FaultInjector(plan).should_drop() for _ in range(20)]
        inj = FaultInjector(plan)
        rolls_b = [inj.should_drop() for _ in range(20)]
        # Same seed, same per-call decisions -- but compare streams, not
        # single instances sharing state.
        inj2 = FaultInjector(plan)
        assert [inj2.should_drop() for _ in range(20)] == rolls_b
        assert rolls_a[0] == rolls_b[0]
        assert inj.dropped == sum(rolls_b)

    def test_zero_loss_never_drops(self):
        inj = FaultInjector(FaultPlan())
        assert not any(inj.should_drop() for _ in range(100))
        assert inj.send_delay() == 0.0

    def test_duplicate_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(duplicate_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(duplicate_rate=-0.1)
        assert FaultPlan(duplicate_rate=0.3).active
        assert not FaultPlan(duplicate_rate=0.0).active

    def test_duplicate_rate_seeded(self):
        plan = FaultPlan(duplicate_rate=0.5, seed=11)
        rolls = [FaultInjector(plan).should_duplicate() for _ in range(1)]
        inj = FaultInjector(plan)
        stream = [inj.should_duplicate() for _ in range(50)]
        inj2 = FaultInjector(plan)
        assert [inj2.should_duplicate() for _ in range(50)] == stream
        assert rolls[0] == stream[0]
        assert 0 < sum(stream) < 50  # really probabilistic at 0.5

    def test_zero_duplicate_rate_never_duplicates_nor_rolls(self):
        """The zero-rate short circuit must not perturb the RNG stream."""
        plan = FaultPlan(loss=0.5, seed=11)
        inj_plain = FaultInjector(plan)
        inj_dup = FaultInjector(FaultPlan(loss=0.5, duplicate_rate=0.0, seed=11))
        assert not any(inj_dup.should_duplicate() for _ in range(10))
        assert [inj_plain.should_drop() for _ in range(30)] == [
            inj_dup.should_drop() for _ in range(30)
        ]

    def test_cut_is_deterministic_and_symmetric(self):
        inj = FaultInjector(FaultPlan(loss=0.9, seed=2))
        inj.cut([(1, 2)])
        assert inj.is_cut(1, 2) and inj.is_cut(2, 1)
        assert not inj.is_cut(0, 1)
        inj.heal([(2, 1)])
        assert not inj.is_cut(1, 2)
        inj.cut([(3, 4), (5, 6)])
        inj.heal_all()
        assert inj.cut_pairs == frozenset()


async def _drive(transport: UdpTransport, until, timeout: float = 5.0) -> None:
    """Poll ``until()`` while the event loop runs transport callbacks."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not until():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition not reached")
        await asyncio.sleep(0.005)


class TestUdpTransport:
    def test_basic_delivery(self):
        async def run():
            transport = UdpTransport([0, 1])
            got = []
            transport.register(1, lambda dest, p: got.append((dest, p)))
            await transport.start()
            try:
                lsa = make_lsa()
                transport.send(0, 1, lsa)
                await _drive(transport, lambda: bool(got) and transport.idle)
                return got, transport.counters()
            finally:
                await transport.stop()

        got, counters = asyncio.run(run())
        assert got == [(1, make_lsa())]
        assert counters["live_datagrams_sent_total"] == 1
        assert counters["live_acks_received_total"] == 1
        assert counters["live_retransmits_total"] == 0

    def test_distinct_ports_per_switch(self):
        async def run():
            transport = UdpTransport([0, 1, 2])
            await transport.start()
            try:
                return {transport.port_of(x) for x in (0, 1, 2)}
            finally:
                await transport.stop()

        assert len(asyncio.run(run())) == 3

    def test_receive_buffer_fits_one_datagram_below_the_mmap_threshold(self):
        """asyncio's 256 KiB default costs an mmap/munmap pair per
        datagram under glibc; any UDP payload fits in 64 KiB."""

        async def run():
            transport = UdpTransport([0, 1])
            await transport.start()
            try:
                return [e.max_size for e in transport._endpoints.values()]
            finally:
                await transport.stop()

        assert asyncio.run(run()) == [65536, 65536]

    def test_loss_triggers_retransmit_and_dedup(self):
        async def run():
            transport = UdpTransport(
                [0, 1],
                faults=FaultPlan(loss=0.4, seed=3),
                policy=RetransmitPolicy(rto=0.01, rto_max=0.05, max_attempts=50),
            )
            got = []
            transport.register(1, lambda dest, p: got.append(p))
            await transport.start()
            try:
                for i in range(10):
                    transport.send(0, 1, make_lsa(seq=i + 1))
                await _drive(
                    transport, lambda: len(got) == 10 and transport.idle, timeout=10.0
                )
                return got, transport.counters()
            finally:
                await transport.stop()

        got, counters = asyncio.run(run())
        # Every payload arrives exactly once despite 40% loss ...
        assert sorted(lsa.timestamp[0] for lsa in got) == list(range(1, 11))
        # ... which requires retransmissions, and loss was really injected.
        assert counters["live_drops_injected_total"] > 0
        assert counters["live_retransmits_total"] > 0
        assert counters["live_delivery_failures_total"] == 0

    def test_duplicate_suppression_counted(self):
        """Lost ACKs force DATA duplicates; the receiver must drop them."""

        async def run():
            transport = UdpTransport(
                [0, 1],
                faults=FaultPlan(loss=0.5, seed=5),
                policy=RetransmitPolicy(rto=0.01, rto_max=0.05, max_attempts=80),
            )
            got = []
            transport.register(1, lambda dest, p: got.append(p))
            await transport.start()
            try:
                for i in range(8):
                    transport.send(0, 1, make_lsa(seq=i + 1))
                await _drive(
                    transport, lambda: len(got) == 8 and transport.idle, timeout=10.0
                )
                return len(got), transport.counters()
            finally:
                await transport.stop()

        delivered, counters = asyncio.run(run())
        assert delivered == 8
        received = counters["live_datagrams_received_total"]
        dupes = counters["live_duplicates_dropped_total"]
        assert received - dupes == 8  # exactly-once delivery to the handler

    def test_attempt_budget_exhaustion(self):
        """Total blackout: the frame is abandoned and counted as a failure."""

        async def run():
            transport = UdpTransport(
                [0, 1],
                faults=FaultPlan(loss=1.0, seed=1),
                policy=RetransmitPolicy(rto=0.005, rto_max=0.01, max_attempts=3),
            )
            transport.register(1, lambda dest, p: None)
            await transport.start()
            try:
                transport.send(0, 1, make_lsa())
                await _drive(transport, lambda: transport.idle, timeout=5.0)
                return transport.counters()
            finally:
                await transport.stop()

        counters = asyncio.run(run())
        assert counters["live_delivery_failures_total"] == 1
        assert counters["live_datagrams_received_total"] == 0

    def test_injected_delay_keeps_transport_busy(self):
        async def run():
            transport = UdpTransport(
                [0, 1],
                faults=FaultPlan(delay=0.05, seed=2),
                policy=RetransmitPolicy(rto=1.0),
            )
            got = []
            transport.register(1, lambda dest, p: got.append(p))
            await transport.start()
            try:
                transport.send(0, 1, make_lsa())
                busy_immediately = not transport.idle
                await _drive(transport, lambda: bool(got) and transport.idle)
                return busy_immediately, got
            finally:
                await transport.stop()

        busy_immediately, got = asyncio.run(run())
        assert busy_immediately
        assert len(got) == 1

    def test_send_before_start_rejected(self):
        transport = UdpTransport([0, 1])
        with pytest.raises(RuntimeError):
            transport.send(0, 1, make_lsa())

    def test_stop_cancels_pending(self):
        async def run():
            transport = UdpTransport(
                [0, 1],
                faults=FaultPlan(loss=1.0, seed=1),
                policy=RetransmitPolicy(rto=10.0, max_attempts=1000),
            )
            transport.register(1, lambda dest, p: None)
            await transport.start()
            transport.send(0, 1, make_lsa())
            assert not transport.idle
            await transport.stop()
            return transport.idle

        assert asyncio.run(run())

    def test_wire_duplicates_injected_and_absorbed(self):
        """The duplicate dial puts copies on the wire; dedup absorbs them."""

        async def run():
            transport = UdpTransport(
                [0, 1],
                faults=FaultPlan(duplicate_rate=1.0, seed=4),
                policy=RetransmitPolicy(rto=0.05, rto_max=0.1, max_attempts=20),
            )
            got = []
            transport.register(1, lambda dest, p: got.append(p))
            await transport.start()
            try:
                for i in range(5):
                    transport.send(0, 1, make_lsa(seq=i + 1))
                await _drive(
                    transport, lambda: len(got) == 5 and transport.idle, timeout=10.0
                )
                return len(got), transport.counters()
            finally:
                await transport.stop()

        delivered, counters = asyncio.run(run())
        assert delivered == 5  # exactly-once despite every frame doubling
        assert counters["live_duplicates_injected_total"] >= 5
        assert counters["live_duplicates_dropped_total"] >= 5

    def test_cut_abandons_frames_without_touching_rng(self):
        """Frames into a cut burn their budget and are abandoned; healing
        restores delivery (the same reliable seq space keeps working)."""

        async def run():
            transport = UdpTransport(
                [0, 1],
                policy=RetransmitPolicy(rto=0.005, rto_max=0.01, max_attempts=3),
            )
            got = []
            transport.register(1, lambda dest, p: got.append(p))
            await transport.start()
            try:
                transport.injector.cut([(0, 1)])
                transport.send(0, 1, make_lsa(seq=1))
                await _drive(transport, lambda: transport.idle, timeout=5.0)
                mid = dict(transport.counters())
                transport.injector.heal([(0, 1)])
                transport.send(0, 1, make_lsa(seq=2))
                await _drive(
                    transport, lambda: bool(got) and transport.idle, timeout=5.0
                )
                return got, mid, transport.counters()
            finally:
                await transport.stop()

        got, mid, counters = asyncio.run(run())
        assert mid["live_delivery_failures_total"] == 1
        assert mid["live_cut_drops_total"] > 0
        assert [lsa.timestamp[0] for lsa in got] == [2]
        assert counters["live_delivery_failures_total"] == 1

    def test_set_host_down_blackholes_and_drops_pending(self):
        async def run():
            transport = UdpTransport(
                [0, 1, 2],
                policy=RetransmitPolicy(rto=0.01, rto_max=0.05, max_attempts=4),
            )
            got = []
            transport.register(1, lambda dest, p: got.append(p))
            transport.register(2, lambda dest, p: got.append(p))
            await transport.start()
            try:
                transport.set_host_down(2)
                assert transport.is_host_down(2)
                # A pending frame toward the downed host is abandoned at once.
                transport.send(0, 2, make_lsa(seq=1))
                await _drive(transport, lambda: transport.idle, timeout=5.0)
                down_counters = dict(transport.counters())
                # Traffic between live hosts is unaffected.
                transport.send(0, 1, make_lsa(seq=2))
                await _drive(
                    transport, lambda: bool(got) and transport.idle, timeout=5.0
                )
                transport.set_host_up(2)
                transport.send(0, 2, make_lsa(seq=3))
                await _drive(
                    transport, lambda: len(got) == 2 and transport.idle, timeout=5.0
                )
                return got, down_counters
            finally:
                await transport.stop()

        got, down_counters = asyncio.run(run())
        assert down_counters["live_delivery_failures_total"] == 1
        assert sorted(lsa.timestamp[0] for lsa in got) == [2, 3]


    def test_send_to_downed_host_leaves_no_pending_state(self):
        """Blackhole fast-fail: no retransmit budget, no timers, no seq."""

        async def run():
            transport = UdpTransport([0, 1])
            transport.register(1, lambda dest, p: None)
            await transport.start()
            try:
                transport.set_host_down(1)
                transport.send(0, 1, make_lsa())
                # The failure is synchronous: nothing queued, no backoff.
                return (
                    transport.pending_keys(),
                    transport.idle,
                    dict(transport.counters()),
                )
            finally:
                await transport.stop()

        pending, idle, counters = asyncio.run(run())
        assert pending == []
        assert idle
        assert counters["live_blackholed_total"] == 1
        assert counters["live_delivery_failures_total"] == 1

    def test_send_to_unregistered_host_fails_fast(self):
        """A torn-down endpoint (crash removed its handler) can never
        ack; the frame must not arm the retransmit budget."""

        async def run():
            transport = UdpTransport([0, 1])
            transport.register(0, lambda dest, p: None)
            # Nothing registered for 1 -- as after LiveFabric.crash().
            await transport.start()
            try:
                transport.send(0, 1, make_lsa())
                return transport.pending_keys(), dict(transport.counters())
            finally:
                await transport.stop()

        pending, counters = asyncio.run(run())
        assert pending == []
        assert counters["live_blackholed_total"] == 1
        assert counters["live_delivery_failures_total"] == 1

    def test_dedup_memory_stays_bounded_over_soak(self):
        """10k frames: the per-peer dedup state compacts to its floor."""

        async def run():
            transport = UdpTransport([0, 1])
            got = []
            transport.register(1, lambda dest, p: got.append(p))
            await transport.start()
            try:
                total = 10_000
                batch = 250  # don't outrun the loopback socket buffers
                for lo in range(0, total, batch):
                    for i in range(lo, lo + batch):
                        transport.send(0, 1, make_lsa(seq=i + 1))
                    await _drive(
                        transport,
                        lambda lo=lo: len(got) >= lo + batch and transport.idle,
                        timeout=30.0,
                    )
                return len(got), transport.dedup_state(1, 0)
            finally:
                await transport.stop()

        delivered, (floor, window) = asyncio.run(run())
        assert delivered == 10_000
        assert floor == 10_000
        assert window == 0  # O(1) memory: everything compacted to the floor

    def test_dedup_window_overflow_forces_floor_advance(self):
        """An abandoned seq gap must not pin the window forever."""
        from repro.net.transport import _PeerDedup

        dedup = _PeerDedup()
        # Seq 1 never arrives (abandoned); 2..12 land out of order.
        for seq in range(2, 13):
            assert not dedup.seen(seq)
            dedup.add(seq, cap=4)
        # The cap forced the floor past the gap: memory stays bounded ...
        assert len(dedup.window) <= 4
        assert dedup.floor >= 8
        # ... and later duplicates of everything delivered are still seen.
        assert all(dedup.seen(seq) for seq in range(2, 13))

    def test_stop_cancels_injected_delay_timers(self):
        """stop() mid-delay leaves no armed timers and no phantom frames."""

        async def run():
            transport = UdpTransport(
                [0, 1], faults=FaultPlan(delay=30.0, seed=2)
            )
            got = []
            transport.register(1, lambda dest, p: got.append(p))
            await transport.start()
            transport.send(0, 1, make_lsa())
            assert not transport.idle  # the delayed copy counts as in flight
            handles = list(transport._delay_handles.values())
            assert handles
            await transport.stop()
            loop = asyncio.get_running_loop()
            scheduled = getattr(loop, "_scheduled", None)
            alive = (
                [h for h in scheduled if not h.cancelled()]
                if scheduled is not None
                else []
            )
            return (
                transport.idle,
                all(h.cancelled() for h in handles),
                alive,
                got,
            )

        idle, all_cancelled, alive, got = asyncio.run(run())
        assert idle
        assert all_cancelled
        assert alive == []  # the loop is clean: no stray TimerHandles
        assert got == []  # and the delayed frame never fired after stop()


def flooded_lsa() -> McLsa:
    """A proposal-carrying LSA with a trace context, as a join floods it."""
    topo = McTopology.shared(
        MulticastTree.build([(0, 3), (3, 7), (7, 12)], [0, 12], root=None)
    )
    return McLsa(
        0, McEvent.JOIN, 1, topo, S(2, 1, 0, 4), Role.BOTH,
        ctx=TraceContext(0, 1, "join", 9, hop=3),
    )


class TestFloodEncoding:
    """One flood encodes its DATA body once; every copy is the frame
    ``frames.encode_data`` builds for it, first send and retransmit alike."""

    PEERS = list(range(1, 16))

    def test_send_flood_encodes_the_lsa_once(self, monkeypatch):
        calls = []
        real_encode_lsa = frames.encode_lsa

        def counting(lsa):
            calls.append(lsa)
            return real_encode_lsa(lsa)

        async def run():
            transport = UdpTransport([0] + self.PEERS)
            for dest in self.PEERS:
                transport.register(dest, lambda dest, p: None)
            await transport.start()
            try:
                monkeypatch.setattr(frames, "encode_lsa", counting)
                lsa = flooded_lsa()
                transport.send_flood(0, lsa, self.PEERS)
                monkeypatch.undo()
                queued = {
                    dest: transport._pending[(0, dest, 1)].frame
                    for dest in self.PEERS
                }
                return lsa, queued
            finally:
                await transport.stop()

        lsa, queued = asyncio.run(run())
        assert len(calls) == 1
        assert queued == {
            dest: frames.encode_data(0, dest, 1, lsa) for dest in self.PEERS
        }

    def test_retransmits_resend_the_first_frame(self):
        """Into a cut pair every attempt goes out, each the same bytes."""
        sent = []

        async def run():
            transport = UdpTransport(
                [0] + self.PEERS,
                policy=RetransmitPolicy(rto=0.005, rto_max=0.01, max_attempts=3),
            )
            for dest in self.PEERS:
                transport.register(dest, lambda dest, p: None)
            await transport.start()
            real_dispatch = transport._dispatch_frame

            def recording(src, dest, frame, kind):
                if kind == "data":
                    sent.append((dest, frame))
                real_dispatch(src, dest, frame, kind)

            transport._dispatch_frame = recording
            try:
                transport.injector.cut([(0, 5)])
                lsa = flooded_lsa()
                transport.send_flood(0, lsa, self.PEERS)
                await _drive(transport, lambda: transport.idle)
                return lsa, transport.counters()
            finally:
                await transport.stop()

        lsa, counters = asyncio.run(run())
        assert counters["live_retransmits_total"] == 2
        for dest in self.PEERS:
            copies = [frame for d, frame in sent if d == dest]
            assert len(copies) == (3 if dest == 5 else 1)
            assert set(copies) == {frames.encode_data(0, dest, 1, lsa)}

    def test_received_lsa_is_one_hop_further(self):
        async def run():
            transport = UdpTransport([0, 1, 2])
            got = []
            for dest in (1, 2):
                transport.register(dest, lambda dest, p: got.append(p))
            await transport.start()
            try:
                lsa = flooded_lsa()
                transport.send_flood(0, lsa, [1, 2])
                await _drive(transport, lambda: len(got) == 2 and transport.idle)
                return lsa, got
            finally:
                await transport.stop()

        lsa, got = asyncio.run(run())
        assert lsa.ctx.hop == 3  # the sender's copy is untouched
        for received in got:
            assert received == lsa and received is not lsa
            assert received.ctx == lsa.ctx and received.ctx.hop == 4
        assert got[0].ctx is not got[1].ctx


class TestRetransmitPolicy:
    def test_exponential_backoff_capped(self):
        policy = RetransmitPolicy(rto=0.02, rto_max=0.5)
        timeouts = [policy.timeout(n) for n in range(1, 10)]
        assert timeouts[0] == 0.02
        assert timeouts[1] == 0.04
        assert all(a <= b for a, b in zip(timeouts, timeouts[1:]))
        assert timeouts[-1] == 0.5

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.001, max_value=0.2),
        st.floats(min_value=0.2, max_value=5.0),
        st.integers(min_value=1, max_value=40),
    )
    def test_timeout_monotone_and_capped(self, rto, rto_max, attempts):
        policy = RetransmitPolicy(rto=rto, rto_max=rto_max)
        timeouts = [policy.timeout(a) for a in range(1, attempts + 1)]
        assert all(b >= a for a, b in zip(timeouts, timeouts[1:]))
        assert all(t <= rto_max for t in timeouts)
        assert timeouts[0] == min(rto, rto_max)
