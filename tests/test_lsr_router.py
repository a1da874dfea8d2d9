"""Tests for the unicast router entity and bring-up."""

from __future__ import annotations

import pytest

from repro.lsr.flooding import FloodingFabric
from repro.lsr.lsa import NonMcLsa
from repro.lsr.router import UnicastRouter, bring_up_unicast
from repro.lsr.spfcache import SolvedImages
from repro.sim.kernel import Simulator
from repro.topo.generators import grid_network, ring_network


def make_deployment(net):
    sim = Simulator()
    fabric = FloodingFabric(sim, net, per_hop_delay=0.1)
    routers = bring_up_unicast(net, fabric)
    for x in net.switches():
        fabric.register(
            x,
            lambda s, p: routers[s].receive(p) if isinstance(p, NonMcLsa) else None,
        )
    return sim, fabric, routers


class TestBringUp:
    def test_all_databases_complete(self, grid4x4):
        _, _, routers = make_deployment(grid4x4)
        assert all(r.lsdb.complete() for r in routers.values())

    def test_no_floods_during_static_bring_up(self, grid4x4):
        _, fabric, _ = make_deployment(grid4x4)
        assert fabric.total_floods == 0

    def test_images_identical(self, grid4x4):
        _, _, routers = make_deployment(grid4x4)
        images = [r.network_image() for r in routers.values()]
        assert all(img == images[0] for img in images)


class TestRoutingTable:
    def test_next_hop_on_grid(self):
        net = grid_network(1, 4)  # line 0-1-2-3
        _, _, routers = make_deployment(net)
        assert routers[0].next_hop(3) == 1
        assert routers[3].next_hop(0) == 2
        assert routers[0].next_hop(0) is None

    def test_table_covers_all_destinations(self, grid4x4):
        _, _, routers = make_deployment(grid4x4)
        assert len(routers[0].routing_table()) == grid4x4.n - 1


class TestLinkEvents:
    def test_link_down_reflows_routes(self):
        net = ring_network(4)
        sim, fabric, routers = make_deployment(net)
        # 0's route to 3 is direct
        assert routers[0].next_hop(3) == 3
        net.set_link_state(0, 3, up=False)
        routers[0].notify_incident_link_event()
        routers[3].notify_incident_link_event()
        sim.run()
        # both endpoints re-advertised; everyone routes around the ring now
        assert routers[0].next_hop(3) == 1
        assert routers[2].lsdb.get(0).seqnum == 2

    def test_exactly_one_non_mc_flood_per_notification(self):
        net = ring_network(4)
        sim, fabric, routers = make_deployment(net)
        net.set_link_state(0, 1, up=False)
        routers[0].notify_incident_link_event()
        assert fabric.count_for("non-mc") == 1

    def test_on_image_change_hook_fires(self):
        net = ring_network(4)
        sim = Simulator()
        fabric = FloodingFabric(sim, net)
        routers = bring_up_unicast(net, fabric)
        hits = []
        routers[2].on_image_change = lambda: hits.append(sim.now)
        fabric.register(2, lambda s, p: routers[2].receive(p))
        net.set_link_state(0, 1, up=False)
        routers[0].notify_incident_link_event()
        sim.run()
        assert len(hits) == 1

    def test_stale_lsa_does_not_fire_hook(self):
        net = ring_network(4)
        sim, fabric, routers = make_deployment(net)
        old = routers[0].lsdb.get(0)
        hits = []
        routers[1].on_image_change = lambda: hits.append(1)
        assert not routers[1].receive(NonMcLsa(0, old))
        assert hits == []


class TestOriginate:
    def test_seqnum_increases(self):
        net = ring_network(4)
        sim = Simulator()
        fabric = FloodingFabric(sim, net)
        router = UnicastRouter(0, net, fabric, SolvedImages())
        a = router.originate(flood=False)
        b = router.originate(flood=False)
        assert b.seqnum == a.seqnum + 1

    def test_lsa_describes_incident_links(self):
        net = ring_network(4)
        sim = Simulator()
        fabric = FloodingFabric(sim, net)
        router = UnicastRouter(0, net, fabric, SolvedImages())
        lsa = router.originate(flood=False)
        assert sorted(nbr for nbr, _, _ in lsa.links) == [1, 3]

    def test_down_links_still_advertised_as_down(self):
        net = ring_network(4)
        net.set_link_state(0, 1, up=False)
        sim = Simulator()
        fabric = FloodingFabric(sim, net)
        router = UnicastRouter(0, net, fabric, SolvedImages())
        lsa = router.originate(flood=False)
        assert lsa.link_map()[1][1] is False
