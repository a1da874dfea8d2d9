"""Tests for the flooding fabric: reach, timing, counters (invariant 6)."""

from __future__ import annotations

import math

import pytest

from repro.core import DgmcNetwork, JoinEvent, LeaveEvent, ProtocolConfig
from repro.lsr.flooding import FloodingFabric, KernelTransport, Transport
from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import Simulator
from repro.topo.generators import grid_network, ring_network
from tests.batches import recorded_batches


def collect_fabric(net, per_hop_delay=None, record_history=False):
    sim = Simulator()
    fabric = FloodingFabric(
        sim, net, per_hop_delay=per_hop_delay, record_history=record_history
    )
    deliveries = []
    for x in net.switches():
        fabric.register(
            x, lambda s, p: deliveries.append((sim.now, s, p))
        )
    return sim, fabric, deliveries


class TestReach:
    def test_every_other_switch_receives_exactly_once(self):
        net = grid_network(4, 4)
        sim, fabric, deliveries = collect_fabric(net, per_hop_delay=1.0)
        fabric.flood(5, "hello")
        sim.run()
        receivers = sorted(s for _, s, _ in deliveries)
        assert receivers == [x for x in range(16) if x != 5]

    def test_origin_not_delivered(self):
        net = ring_network(5)
        sim, fabric, deliveries = collect_fabric(net)
        fabric.flood(2, "x")
        sim.run()
        assert all(s != 2 for _, s, _ in deliveries)

    def test_partition_limits_reach(self):
        net = ring_network(6)
        net.set_link_state(0, 1, up=False)
        net.set_link_state(3, 4, up=False)
        sim, fabric, deliveries = collect_fabric(net)
        fabric.flood(2, "x")
        sim.run()
        receivers = sorted(s for _, s, _ in deliveries)
        assert receivers == [1, 3]  # only 2's side of the two cuts


class TestTiming:
    def test_per_hop_mode_arrival_times(self):
        net = grid_network(1, 4)  # a line 0-1-2-3
        sim, fabric, deliveries = collect_fabric(net, per_hop_delay=2.0)
        fabric.flood(0, "x")
        sim.run()
        times = {s: t for t, s, _ in deliveries}
        assert times == {1: 2.0, 2: 4.0, 3: 6.0}

    def test_link_delay_mode_uses_shortest_delay_path(self):
        net = ring_network(4, delay=1.0)
        net.link(0, 3).delay = 10.0
        sim, fabric, deliveries = collect_fabric(net)
        fabric.flood(0, "x")
        sim.run()
        times = {s: t for t, s, _ in deliveries}
        assert times[3] == pytest.approx(3.0)  # around the ring, not the slow link

    def test_bounded_by_flooding_diameter(self):
        net = grid_network(3, 3)
        sim, fabric, deliveries = collect_fabric(net, per_hop_delay=1.0)
        tf = net.flooding_diameter(per_hop_delay=1.0)
        fabric.flood(4, "x")  # center
        sim.run()
        assert all(t <= tf for t, _, _ in deliveries)


class TestKernelEntries:
    """One kernel entry per (flood, arrival instant); the order is that of
    one entry per destination (docs/simulation-kernel.md, rule 2)."""

    def test_one_entry_per_distinct_arrival_instant_in_id_order(self):
        net = grid_network(4, 4)
        sim, fabric, deliveries = collect_fabric(net, per_hop_delay=1.0)
        fabric.flood(0, "x")
        assert sim.queue_depth == 6  # hop classes 1..6 from a corner
        sim.run()
        assert sim.events_dispatched == 6
        assert len(deliveries) == 15
        assert deliveries == sorted(deliveries)  # by instant, then by id

    def test_same_instant_floods_drain_as_one_receive_batch(self):
        """Rule 3: copies of two floods reaching one switch at one instant
        are one ReceiveLSA() wake; the second copy is drained, not a second
        wake.  (A wake run inline by ``deliver_mc_lsa`` breaks exactly this.)"""
        dgmc = DgmcNetwork(
            grid_network(1, 3),  # a line 0-1-2
            ProtocolConfig(compute_time=0.5, per_hop_delay=1.0),
        )
        dgmc.register_symmetric(1)
        dgmc.inject(JoinEvent(0, 1), at=0.0)
        dgmc.inject(JoinEvent(2, 1), at=0.0)  # both flood at 0.5
        with recorded_batches(dgmc.switches[1]) as batches:
            dgmc.run(until=1.5)
        assert [(at, [lsa.source for lsa in batch]) for at, batch in batches] == [
            (1.5, [0, 2])
        ]

    def test_delays_that_round_to_one_instant_share_an_entry(self):
        """Grouping is by the float the heap compares, ``now + delay``."""
        sim = Simulator()
        sim.schedule(8.0, lambda: None)
        sim.run()
        transport = KernelTransport(sim)
        got = []
        for x in (1, 2, 3):
            transport.register(x, lambda s, p: got.append((sim.now, s)))
        near = math.nextafter(0.5, 1.0)
        assert near != 0.5 and 8.0 + near == 8.5
        transport.send_flood(0, "x", {1: near, 2: 0.5, 3: near})
        assert sim.queue_depth == 1
        sim.run()
        assert got == [(8.5, 1), (8.5, 2), (8.5, 3)]

    def test_handlers_resolve_at_send_time(self):
        sim = Simulator()
        transport = KernelTransport(sim)
        got = []
        transport.register(1, lambda s, p: got.append(s))
        transport.send_flood(0, "x", {1: 1.0, 2: 1.0})
        transport.send(0, 3, "x", 1.0)
        transport.register(2, lambda s, p: got.append(s))
        transport.register(3, lambda s, p: got.append(s))
        sim.run()
        assert got == [1]

    def test_a_send_only_transport_sees_one_send_per_destination(self):
        """``Transport.send_flood`` defaults to per-destination sends in id
        order -- what ``StressTransport``, ``UdpTransport`` and recording
        test transports rely on."""

        class SendOnly(Transport):
            def __init__(self):
                self.calls = []

            def register(self, switch_id, handler):
                pass

            def send(self, src, dest, payload, delay=0.0):
                self.calls.append((src, dest, payload, delay))

            def has_handler(self, switch_id):
                return switch_id != 7

            idle = True
            handler_count = 0

        net = grid_network(3, 3)
        transport = SendOnly()
        fabric = FloodingFabric(Simulator(), net, per_hop_delay=0.5, transport=transport)
        fabric.flood(4, "x")
        hops = net.hop_distances(4)
        assert transport.calls == [
            (4, dest, "x", hops[dest] * 0.5) for dest in range(9) if dest not in (4, 7)
        ]


class TestCounters:
    def test_flood_counts_by_kind(self):
        net = ring_network(4)
        sim, fabric, _ = collect_fabric(net)
        fabric.flood(0, "a", kind="mc")
        fabric.flood(1, "b", kind="mc")
        fabric.flood(2, "c", kind="non-mc")
        assert fabric.count_for("mc") == 2
        assert fabric.count_for("non-mc") == 1
        assert fabric.total_floods == 3

    def test_delivery_count(self):
        net = ring_network(5)
        sim, fabric, _ = collect_fabric(net)
        fabric.flood(0, "a")
        sim.run()
        assert fabric.delivery_count == 4

    def test_flood_hops_reads_as_one_observation_per_delivery(self):
        """Observed once per hop class with a count, not once per delivery."""
        net = grid_network(5, 5)
        sim, fabric, deliveries = collect_fabric(net, per_hop_delay=0.5)
        registry = MetricsRegistry()
        fabric.bind_metrics(registry)
        hops = registry.histogram("flood_hops")
        fabric.flood(0, "a")
        fabric.flood(12, "b")
        sim.run()
        distances = [round(at / 0.5) for at, _, _ in deliveries]
        assert hops.count == fabric.delivery_count == len(distances) == 48
        assert hops.sum == sum(distances)
        assert hops.counts == [
            sum(low < d <= high for d in distances)
            for low, high in zip((0,) + hops.buckets, hops.buckets)
        ]
        assert registry.histogram("flood_fanout").count == 2

    def test_zero_per_hop_delay_floods_and_still_counts_hop_classes(self):
        """Regression: ``flood_hops`` divided hop counts back out of the
        delay, so ``per_hop_delay=0.0`` raised ZeroDivisionError at the
        first MC flood.  Hop counts come from the BFS map itself."""
        dgmc = DgmcNetwork(ring_network(6), ProtocolConfig(per_hop_delay=0.0))
        dgmc.register_symmetric(1)
        for member in (0, 2, 3):
            dgmc.inject(JoinEvent(member, 1), at=0.0)
        dgmc.inject(LeaveEvent(2, 1), at=5.0)
        dgmc.run()
        assert dgmc.agreement(1)[0]
        assert sorted(dgmc.switches[4].states[1].members) == [0, 3]
        hops = dgmc.metrics.histogram("flood_hops")
        floods = dgmc.fabric.total_floods
        # Around a 6-ring every flood reaches two switches at 1 and 2 hops, one at 3.
        assert hops.count == dgmc.fabric.delivery_count == 5 * floods
        assert hops.sum == 9 * floods
        assert hops.counts[:3] == [2 * floods, 2 * floods, floods]

    def test_count_for_unknown_kind_is_zero(self):
        net = ring_network(4)
        _, fabric, _ = collect_fabric(net)
        assert fabric.count_for("nothing") == 0


class TestHistory:
    def test_record_history(self):
        net = ring_network(4)
        sim, fabric, _ = collect_fabric(net, record_history=True)
        record = fabric.flood(0, "payload", kind="mc")
        sim.run()
        assert fabric.history == [record]
        assert record.origin == 0
        assert sorted(record.arrivals) == [1, 2, 3]

    def test_history_off_by_default(self):
        net = ring_network(4)
        sim, fabric, _ = collect_fabric(net)
        fabric.flood(0, "x")
        assert fabric.history == []


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        net = ring_network(4)
        sim = Simulator()
        fabric = FloodingFabric(sim, net)
        fabric.register(0, lambda s, p: None)
        with pytest.raises(ValueError):
            fabric.register(0, lambda s, p: None)

    def test_unregistered_switches_skipped(self):
        net = ring_network(4)
        sim = Simulator()
        fabric = FloodingFabric(sim, net)
        got = []
        fabric.register(1, lambda s, p: got.append(s))
        fabric.flood(0, "x")
        sim.run()
        assert got == [1]
