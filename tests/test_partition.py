"""Network partition behavior.

The paper explicitly defers partition survival ("the ability of the
protocol to survive disastrous situations, such as network partitioning,
remains for further study").  These tests pin down the library's graceful
degradation: topology computations never crash, each side of a partition
serves the members it can reach, and healing the partition (with
reoptimize_on_link_up) restores a full spanning tree.
"""

from __future__ import annotations

import pytest

from repro.core import DgmcNetwork, JoinEvent, LinkEvent, ProtocolConfig
from repro.lsr import spf
from repro.topo.generators import grid_network
from repro.trees.algorithms import SharedTreeAlgorithm, reachable_members


BOTH = frozenset(("sender", "receiver"))


class TestReachableMembers:
    def test_full_reachability(self):
        adj = spf.network_adjacency(grid_network(1, 4))
        assert reachable_members(adj, frozenset({0, 3})) == frozenset({0, 3})

    def test_partition_keeps_anchor_side(self):
        net = grid_network(1, 4)
        net.set_link_state(1, 2, up=False)
        adj = spf.network_adjacency(net)
        assert reachable_members(adj, frozenset({0, 1, 3})) == frozenset({0, 1})

    def test_custom_anchor(self):
        net = grid_network(1, 4)
        net.set_link_state(1, 2, up=False)
        adj = spf.network_adjacency(net)
        assert reachable_members(adj, frozenset({0, 3}), anchor=2) == frozenset({3})

    def test_empty(self):
        assert reachable_members({}, frozenset()) == frozenset()


class TestAlgorithmDegradation:
    def test_shared_tree_serves_reachable_component(self):
        net = grid_network(1, 4)
        net.set_link_state(1, 2, up=False)
        adj = spf.network_adjacency(net)
        topo = SharedTreeAlgorithm().compute(
            adj, {0: BOTH, 1: BOTH, 3: BOTH}, None
        )
        tree = topo.shared_tree
        assert tree.members == frozenset({0, 1})
        tree.validate({0, 1})


class TestProtocolUnderPartition:
    def test_partition_does_not_crash_and_serves_each_side(self):
        # line 0-1-2-3; members 0 and 3; cut the middle.
        net = grid_network(1, 4)
        dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
        dgmc.register_symmetric(1)
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        dgmc.inject(JoinEvent(3, 1), at=20.0)
        dgmc.run()
        dgmc.inject(LinkEvent(1, 1, 2, up=False), at=40.0)
        dgmc.run()  # must not raise
        # The detector side recomputed; its tree covers only its component.
        state0 = dgmc.states_for(1)[0]
        tree = state0.installed.shared_tree
        up_edges = {link.key for link in net.links()}
        assert tree.edges <= up_edges

    def test_heal_restores_spanning_tree(self):
        net = grid_network(1, 4)
        dgmc = DgmcNetwork(
            net,
            ProtocolConfig(
                compute_time=0.5, per_hop_delay=0.05, reoptimize_on_link_up=True
            ),
        )
        dgmc.register_symmetric(1)
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        dgmc.inject(JoinEvent(3, 1), at=20.0)
        dgmc.inject(LinkEvent(1, 1, 2, up=False), at=40.0)
        dgmc.run()
        dgmc.inject(LinkEvent(1, 1, 2, up=True), at=80.0)
        dgmc.run()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        tree = dgmc.states_for(1)[0].installed.shared_tree
        tree.validate({0, 3})
