"""Tests for the MOSPF baseline: data-driven computations and caching."""

from __future__ import annotations

import pytest

from repro.baselines.mospf import MospfNetwork
from repro.core.events import JoinEvent, LeaveEvent, LinkEvent
from repro.topo.generators import grid_network, ring_network, waxman_network


def make(net=None, **kw):
    kw.setdefault("compute_time", 0.5)
    kw.setdefault("per_hop_delay", 0.05)
    return MospfNetwork(net or grid_network(3, 3), **kw)


class TestMembership:
    def test_membership_lsa_reaches_all_routers(self):
        mo = make()
        mo.inject(JoinEvent(4, 1), at=1.0)
        mo.run()
        for x in range(9):
            assert mo.members_of(1, at_router=x) == frozenset({4})
        assert mo.agreement(1) == (True, "group 1: 9 routers agree")

    def test_leave_updates_member_lists(self):
        mo = make()
        mo.inject(JoinEvent(4, 1), at=1.0)
        mo.inject(JoinEvent(8, 1), at=2.0)
        mo.inject(LeaveEvent(4, 1), at=3.0)
        mo.run()
        assert mo.members_of(1) == frozenset({8})

    def test_one_flood_per_event(self):
        mo = make()
        mo.inject(JoinEvent(4, 1), at=1.0)
        mo.inject(LeaveEvent(4, 1), at=2.0)
        mo.run()
        assert mo.mc_floodings() == 2

    def test_link_event_rejected(self):
        with pytest.raises(TypeError):
            make().inject(LinkEvent(0, 0, 1, up=False), at=1.0)


class TestDataDriven:
    def test_no_computation_without_traffic(self):
        mo = make()
        mo.inject(JoinEvent(4, 1), at=1.0)
        mo.run()
        assert mo.total_computations() == 0

    def test_datagram_triggers_computation_at_on_tree_routers(self):
        mo = make(net=grid_network(1, 4))  # line 0-1-2-3
        mo.inject(JoinEvent(3, 1), at=1.0)
        mo.send_datagram(0, 1, at=10.0)
        mo.run()
        # the tree is 0-1-2-3: all four routers compute once
        assert mo.total_computations() == 4
        assert mo.datagrams_delivered == 1

    def test_cache_suppresses_recomputation(self):
        mo = make(net=grid_network(1, 4))
        mo.inject(JoinEvent(3, 1), at=1.0)
        mo.send_datagram(0, 1, at=10.0)
        mo.send_datagram(0, 1, at=20.0)
        mo.run()
        assert mo.total_computations() == 4  # second datagram rides the cache
        assert mo.datagrams_delivered == 2

    def test_membership_change_invalidates_cache(self):
        mo = make(net=grid_network(1, 4))
        mo.inject(JoinEvent(3, 1), at=1.0)
        mo.send_datagram(0, 1, at=10.0)
        mo.inject(JoinEvent(2, 1), at=20.0)
        mo.send_datagram(0, 1, at=30.0)
        mo.run()
        # 4 computations for the first send, 4 more after the flush
        assert mo.total_computations() == 8

    def test_per_source_caches_are_separate(self):
        mo = make(net=ring_network(4))
        mo.inject(JoinEvent(2, 1), at=1.0)
        mo.send_datagram(0, 1, at=10.0)
        first = mo.total_computations()
        mo.send_datagram(1, 1, at=20.0)
        mo.run()
        assert mo.total_computations() > first  # source 1's tree is a new key

    def test_delivery_to_every_member(self, rng):
        net = waxman_network(20, rng)
        mo = MospfNetwork(net, compute_time=0.1, per_hop_delay=0.05)
        members = [3, 9, 15]
        for i, sw in enumerate(members):
            mo.inject(JoinEvent(sw, 1), at=float(i + 1))
        mo.send_datagram(0, 1, at=50.0)
        mo.run()
        assert mo.datagrams_delivered == 3

    def test_sender_member_counts_as_delivered(self):
        mo = make(net=ring_network(4))
        mo.inject(JoinEvent(0, 1), at=1.0)
        mo.inject(JoinEvent(2, 1), at=2.0)
        mo.send_datagram(0, 1, at=10.0)
        mo.run()
        assert mo.datagrams_delivered == 2  # 0 (local) and 2
