"""Tests for the brute-force event-driven baseline (Section 2)."""

from __future__ import annotations

import pytest

from repro.baselines.brute_force import BruteForceNetwork
from repro.core.events import JoinEvent, LeaveEvent, LinkEvent
from repro.core.mc import Role
from repro.topo.generators import ring_network, waxman_network


def make(net=None, **kw):
    kw.setdefault("compute_time", 0.5)
    kw.setdefault("per_hop_delay", 0.05)
    bf = BruteForceNetwork(net or ring_network(6), **kw)
    bf.register_symmetric(1)
    return bf


class TestCost:
    def test_n_computations_per_event(self):
        bf = make()
        bf.inject(JoinEvent(0, 1), at=1.0)
        bf.run()
        assert bf.total_computations() == 6  # n = 6

    def test_cost_scales_linearly_with_events(self):
        bf = make()
        for i, sw in enumerate([0, 2, 4]):
            bf.inject(JoinEvent(sw, 1), at=10.0 * (i + 1))
        bf.run()
        assert bf.total_computations() == 18
        assert bf.mc_floodings() == 3

    def test_every_switch_computes_each_event(self, rng):
        net = waxman_network(15, rng)
        bf = BruteForceNetwork(net, compute_time=0.5, per_hop_delay=0.05)
        bf.register_symmetric(1)
        bf.inject(JoinEvent(3, 1), at=1.0)
        bf.run()
        assert bf.total_computations() == 15


class TestCorrectness:
    def test_agreement_after_sparse_events(self, rng):
        net = waxman_network(12, rng)
        bf = BruteForceNetwork(net, compute_time=0.5, per_hop_delay=0.05)
        bf.register_symmetric(1)
        for i, sw in enumerate([1, 5, 9]):
            bf.inject(JoinEvent(sw, 1), at=100.0 * (i + 1))
        bf.inject(LeaveEvent(5, 1), at=500.0)
        bf.run()
        ok, detail = bf.agreement(1)
        assert ok, detail
        state = bf.states[0][1]
        assert sorted(state.members) == [1, 9]
        state.installed.shared_tree.validate({1, 9})

    def test_roles_respected(self):
        bf = make()
        bf.inject(JoinEvent(0, 1, role=Role.SENDER), at=1.0)
        bf.run()
        assert bf.states[3][1].members[0] == frozenset({"sender"})

    def test_receiver_only_registration(self):
        bf = BruteForceNetwork(ring_network(4), compute_time=0.1)
        bf.register_receiver_only(7)
        bf.inject(JoinEvent(1, 7), at=1.0)
        bf.run()
        assert bf.states[0][7].members[1] == frozenset({"receiver"})

    def test_leave_to_empty_gives_empty_topology(self):
        bf = make()
        bf.inject(JoinEvent(0, 1), at=1.0)
        bf.inject(LeaveEvent(0, 1), at=50.0)
        bf.run()
        state = bf.states[2][1]
        assert not state.members
        assert state.installed.trees == ()

    def test_last_install_time_advances(self):
        bf = make()
        bf.inject(JoinEvent(0, 1), at=1.0)
        bf.run()
        assert bf.last_install_time(1) > 1.0
        assert bf.last_install_time(99) == 0.0

    def test_link_event_rejected(self):
        bf = make()
        with pytest.raises(TypeError):
            bf.inject(LinkEvent(0, 0, 1, up=False), at=1.0)
