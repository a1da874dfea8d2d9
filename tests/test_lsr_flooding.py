"""Tests for the flooding fabric: reach, timing, counters (invariant 6), and
the one delivery path held to a copy-by-copy oracle."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import BruteForceNetwork
from repro.baselines.mospf import MospfNetwork
from repro.core import DgmcNetwork, JoinEvent, LeaveEvent, LinkEvent, ProtocolConfig
from repro.lsr.flooding import FloodingFabric, FloodPlan, Transport
from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import Simulator
from repro.stress.executor import StressTransport
from repro.topo.generators import (
    grid_network, random_connected_network, ring_network, waxman_network,
)
from repro.topo.graph import Network
from tests.batches import recorded_batches


def collect_fabric(net, per_hop_delay=1.0, record_history=False):
    sim = Simulator()
    deliveries = []

    def deliver(dests, payload):
        deliveries.extend((sim.now, x, payload) for x in dests)

    fabric = FloodingFabric(
        sim, net, per_hop_delay, deliver, record_history=record_history
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

    def test_link_delays_do_not_time_a_flood(self):
        net = ring_network(4, delay=1.0)
        net.link(0, 3).delay = 10.0
        sim, fabric, deliveries = collect_fabric(net, per_hop_delay=0.5)
        fabric.flood(0, "x")
        sim.run()
        times = {s: t for t, s, _ in deliveries}
        assert times == {1: 0.5, 2: 1.0, 3: 0.5}  # one hop over the slow link

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
        near = math.nextafter(0.5, 1.0)
        assert near != 0.5 and 8.0 + near == 8.5
        plan = FloodPlan([(near, 1), (0.5, 2), (near, 3)])
        assert plan.classes == ((near, (1, 3)), (0.5, (2,)))
        assert plan.instants(0.0) is plan.classes
        assert plan.instants(8.0) == ((near, (1, 2, 3)),)

    def test_a_transport_gets_one_send_per_flood(self):
        """A transport replaces the kernel as the carrier: it is handed the
        flood's plan and the deployment's hook, once per flood."""
        net = grid_network(3, 3)
        sends = []

        class Recording(Transport):
            def send(self, src, payload, plan, hook):
                sends.append((src, payload, plan, hook))

        def deliver(dests, payload):
            pass

        fabric = FloodingFabric(Simulator(), net, 0.5, deliver, transport=Recording())
        record = fabric.flood(4, "x")
        assert sends == [(4, "x", record.plan, deliver)]
        hops = net.hop_distances(4)
        assert record.plan.copies() == [
            (hops[dest] * 0.5, dest) for dest in range(9) if dest != 4
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


class TestHopCache:
    def test_heal_reads_the_counts_from_before_the_failure(self, monkeypatch):
        """Flood plans, hop counts included, are keyed on the exact up-link
        state, so a heal returns to the plan built before the failure, with
        no BFS, and the ``flood_hops`` histogram reads that plan."""
        net = grid_network(4, 4)
        sim, fabric, _ = collect_fabric(net, per_hop_delay=1.0)
        registry = MetricsRegistry()
        fabric.bind_metrics(registry)
        hops = registry.histogram("flood_hops")
        plan = fabric.plan(5)
        before = plan.copies()
        net.set_link_state(5, 6, up=False)
        assert fabric.plan(5).copies() != before
        calls = []
        bfs = Network.hop_distances
        monkeypatch.setattr(
            Network, "hop_distances", lambda net, x: calls.append(x) or bfs(net, x)
        )
        net.set_link_state(5, 6, up=True)
        assert fabric.plan(5) is plan
        fabric.flood(5, "x")
        sim.run()
        assert calls == []
        assert hops.count == fabric.delivery_count == 15
        assert hops.sum == sum(delay for delay, _ in before)


class TestFloodPlans:
    """One plan per (origin, up-link state), equal to a fresh one."""

    @staticmethod
    def fresh_plan(fabric, origin):
        """The plan a fabric that never flooded before builds now."""
        return FloodingFabric(
            fabric.sim, fabric.net, fabric.per_hop_delay, fabric.deliver
        ).plan(origin)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        per_hop=st.sampled_from([0.5, 1.1]),
        steps=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 11)), min_size=1, max_size=30
        ),
    )
    def test_a_cached_plan_equals_a_fresh_one_under_link_flips(self, seed, per_hop, steps):
        net = random_connected_network(12, random.Random(seed), extra_links=8)
        links = sorted((link.u, link.v) for link in net.links())
        sim, fabric, _ = collect_fabric(net, per_hop_delay=per_hop)
        for pick, origin in steps:
            u, v = links[pick % len(links)]
            net.set_link_state(u, v, up=not net.link(u, v).up)
            cached, fresh = fabric.plan(origin), self.fresh_plan(fabric, origin)
            assert cached.classes == fresh.classes
            assert cached.copies() == fresh.copies()
            assert cached.hop_counts == fresh.hop_counts
            assert cached.fanout == len(cached.copies())
            hops = net.hop_distances(origin)
            assert sorted(cached.hop_counts) == sorted(
                Counter(hops[x] for _, x in cached.copies()).items()
            )

    def test_hop_delays_on_one_float_instant_are_one_entry_in_id_order(self):
        """At ``now = 2**53`` (float spacing 2) the 1.1 and 2.2 hop delays
        both round to ``now + 2``: the plan's two delay classes are one
        kernel entry, its copies in id order, as one entry per
        destination would run them."""
        net = grid_network(1, 5)  # a line 0-1-2-3-4
        sim, fabric, deliveries = collect_fabric(net, per_hop_delay=1.1)
        sim.schedule(2.0**53, lambda: None)
        sim.run()
        now = sim.now
        plan = fabric.plan(2)
        assert [delay for delay, _ in plan.classes] == [2.2, 1.1]
        assert now + 1.1 == now + 2.2 == now + 2
        fabric.flood(2, "x")
        assert sim.queue_depth == 1
        sim.run()
        one_entry_each = sorted((now + delay, x) for delay, x in plan.copies())
        assert [(at, x) for at, x, _ in deliveries] == one_entry_each
        assert [x for _, x, _ in deliveries] == [0, 1, 3, 4]


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



class TestDeliveryOracle:
    """Every deployment's floods reach its one hook as what one entry per
    copy would deliver: one copy per reachable switch, due ``hops x
    per_hop_delay`` after the flood, in ``(time, id)`` order, floods of one
    instant in flood order -- on 60-switch Waxman graphs whose links flip
    between floods."""

    PER_HOP = 0.05

    @staticmethod
    def record(deployment):
        """Wrap the deployment's hook and ``flood``: what the hook hears,
        ``(time, dest, payload)``, and what one copy per reachable switch
        would deliver, ``(time, flood number, dest, payload)``."""
        fabric, net, sim = deployment.fabric, deployment.net, deployment.sim
        heard, oracle = [], []
        hook, flood = fabric.deliver, fabric.flood

        def deliver(dests, payload):
            heard.extend((sim.now, x, payload) for x in dests)
            hook(dests, payload)

        def flood_and_note(origin, payload, kind="lsa"):
            number = fabric.total_floods
            oracle.extend(
                (sim.now + h * fabric.per_hop_delay, number, x, payload)
                for x, h in net.hop_distances(origin).items() if x != origin
            )
            return flood(origin, payload, kind)

        fabric.deliver = deliver
        fabric.flood = flood_and_note
        return heard, oracle

    @staticmethod
    def flips(net, rng):
        """Six distinct links, each failing and later healing."""
        links = rng.sample(sorted(link.key for link in net.links()), 6)
        return links + links

    def churn(self, deployment, rng, link_events):
        """Seeded joins and leaves, with link flips between them: as link
        events under D-GMC, as bare state changes under the baselines."""
        net, sim = deployment.net, deployment.sim
        members, down = set(), set()
        at = 1.0
        for u, v in self.flips(net, rng):
            x = rng.randrange(net.n)
            event = LeaveEvent(x, 1) if x in members else JoinEvent(x, 1)
            members ^= {x}
            deployment.inject(event, at=at)
            up = (u, v) in down
            down ^= {(u, v)}
            if link_events:
                deployment.inject(LinkEvent(detector=u, u=u, v=v, up=up), at=at + 0.07)
            else:
                sim.schedule_at(at + 0.07, lambda u=u, v=v, up=up: net.set_link_state(u, v, up))
            at += rng.choice((0.02, 0.11, 0.5, 3.0))
        deployment.run()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("protocol", ["dgmc", "mospf", "brute_force"])
    def test_the_kernel_delivers_one_copy_per_reachable_switch(self, protocol, seed):
        net = waxman_network(60, random.Random(seed))
        if protocol == "dgmc":
            deployment = DgmcNetwork(
                net, ProtocolConfig(compute_time=0.5, per_hop_delay=self.PER_HOP)
            )
        elif protocol == "mospf":
            deployment = MospfNetwork(net, compute_time=0.5, per_hop_delay=self.PER_HOP)
        else:
            deployment = BruteForceNetwork(net, compute_time=0.5, per_hop_delay=self.PER_HOP)
        if protocol != "mospf":
            deployment.register_symmetric(1)
        heard, oracle = self.record(deployment)
        self.churn(deployment, random.Random(seed), link_events=protocol == "dgmc")
        assert len(heard) > 500
        one_entry_each = sorted(oracle, key=lambda copy: copy[:3])
        assert heard == [(at, x, payload) for at, _, x, payload in one_entry_each]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_explorer_parks_one_copy_per_reachable_switch_in_id_order(self, seed):
        rng = random.Random(seed)
        net = waxman_network(60, random.Random(seed))
        transport = StressTransport()
        dgmc = DgmcNetwork(
            net, ProtocolConfig(compute_time=0.5, per_hop_delay=self.PER_HOP),
            transport=transport,
        )
        expected = []
        for u, v in self.flips(net, rng):
            net.set_link_state(u, v, up=not net.link(u, v).up)
            origin = rng.randrange(60)
            payload = ("flood", len(expected))
            dgmc.fabric.flood(origin, payload)
            expected.extend(
                (origin, x, payload)
                for x in sorted(net.hop_distances(origin)) if x != origin
            )
        parked = [(p.src, p.dest, p.payload) for p in transport.pending.values()]
        assert parked == expected
        assert list(transport.pending) == sorted(transport.pending)
