"""Tests for the flooding fabric: reach, timing, counters (invariant 6)."""

from __future__ import annotations

import pytest

from repro.lsr.flooding import FloodingFabric
from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import Simulator
from repro.topo.generators import grid_network, ring_network


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
