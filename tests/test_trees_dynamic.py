"""Tests for incremental (dynamic) Steiner maintenance: graft, prune, policy."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.lsr import spf
from repro.topo.generators import grid_network, random_connected_network, waxman_network
from repro.trees.base import MulticastTree, TreeError, edge_weights
from repro.trees.dynamic import GreedyDynamicSteiner, graft_path, prune_member
from repro.trees.steiner import kmb_steiner_tree, pruned_spt_steiner_tree


def grid_adj():
    return spf.network_adjacency(grid_network(3, 3))


class TestGraft:
    def test_graft_into_empty_tree(self):
        tree = MulticastTree.empty()
        grown = graft_path(grid_adj(), tree, 4)
        assert grown.members == frozenset({4})
        assert len(grown.edges) == 0

    def test_graft_attaches_by_cheapest_path(self):
        adj = grid_adj()
        tree = MulticastTree.build([(0, 1)], [0, 1])
        grown = graft_path(adj, tree, 2)
        assert grown.edges == frozenset({(0, 1), (1, 2)})

    def test_graft_existing_node_is_noop_on_edges(self):
        adj = grid_adj()
        tree = MulticastTree.build([(0, 1), (1, 2)], [0, 2])
        grown = graft_path(adj, tree, 1)
        assert grown.edges == tree.edges
        assert 1 in grown.members

    def test_graft_unreachable_raises(self):
        adj = {0: {1: 1.0}, 1: {0: 1.0}, 2: {}}
        tree = MulticastTree.build([(0, 1)], [0, 1])
        with pytest.raises(TreeError):
            graft_path(adj, tree, 2)

    def test_graft_may_use_steiner_nodes(self):
        adj = grid_adj()
        tree = MulticastTree.build([(0, 1), (1, 2)], [0, 2])
        grown = graft_path(adj, tree, 7)  # grid center column bottom
        grown.validate([0, 2, 7])
        assert grown.is_tree()


class TestPrune:
    def test_prune_leaf_removes_branch(self):
        adj = grid_adj()
        tree = MulticastTree.build([(0, 1), (1, 2), (2, 5), (5, 8)], [0, 2, 8])
        pruned = prune_member(tree, 8)
        assert pruned.edges == frozenset({(0, 1), (1, 2)})
        assert pruned.members == frozenset({0, 2})

    def test_prune_relay_keeps_edges(self):
        tree = MulticastTree.build([(0, 1), (1, 2)], [0, 1, 2])
        pruned = prune_member(tree, 1)
        assert pruned.edges == tree.edges
        assert pruned.members == frozenset({0, 2})

    def test_prune_cascades_through_steiner_chain(self):
        # 0 -1- 1 -2- 2 with members {0, 2}: removing 2 strips both edges
        # past the remaining member.
        tree = MulticastTree.build([(0, 1), (1, 2), (2, 3)], [0, 3])
        pruned = prune_member(tree, 3)
        assert pruned.edges == frozenset()
        assert pruned.members == frozenset({0})

    def test_prune_absent_member_is_noop(self):
        tree = MulticastTree.build([(0, 1)], [0, 1])
        pruned = prune_member(tree, 9)
        assert pruned.edges == tree.edges

    def test_prune_respects_root(self):
        tree = MulticastTree.build([(0, 1)], [0, 1], root=1)
        pruned = prune_member(tree, 1)
        # root 1 stays on the tree even as a non-member leaf
        assert pruned.edges == frozenset({(0, 1)})


class TestPolicy:
    def test_first_computation_is_from_scratch(self):
        adj = grid_adj()
        dyn = GreedyDynamicSteiner()
        tree = dyn.update(adj, None, frozenset({0, 8}))
        tree.validate([0, 8])
        assert dyn.rebuilds == 1
        assert dyn.incremental_updates == 0

    def test_join_is_incremental(self):
        adj = grid_adj()
        dyn = GreedyDynamicSteiner(rebuild_threshold=float("inf"))
        tree = dyn.update(adj, None, frozenset({0, 8}))
        tree2 = dyn.update(adj, tree, frozenset({0, 8, 2}))
        tree2.validate([0, 8, 2])
        assert dyn.incremental_updates == 1

    def test_leave_is_incremental(self):
        adj = grid_adj()
        dyn = GreedyDynamicSteiner(rebuild_threshold=float("inf"))
        tree = dyn.update(adj, None, frozenset({0, 8, 2}))
        tree2 = dyn.update(adj, tree, frozenset({0, 8}))
        tree2.validate([0, 8])
        assert dyn.incremental_updates == 1

    def test_broken_tree_edge_forces_rebuild(self):
        adj = grid_adj()
        dyn = GreedyDynamicSteiner()
        tree = dyn.update(adj, None, frozenset({0, 8}))
        # remove an edge the tree uses from the adjacency (link failure)
        u, v = sorted(tree.edges)[0]
        broken = {
            x: {y: w for y, w in nbrs.items() if {x, y} != {u, v}}
            for x, nbrs in adj.items()
        }
        rebuilds_before = dyn.rebuilds
        tree2 = dyn.update(broken, tree, frozenset({0, 8}))
        tree2.validate([0, 8])
        assert dyn.rebuilds == rebuilds_before + 1
        assert (u, v) not in tree2.edges

    def test_empty_membership_returns_empty(self):
        dyn = GreedyDynamicSteiner()
        tree = dyn.update(grid_adj(), None, frozenset())
        assert len(tree.edges) == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            GreedyDynamicSteiner(rebuild_threshold=0.5)
        with pytest.raises(ValueError):
            GreedyDynamicSteiner(scratch="nonsense")

    def test_tight_threshold_triggers_rebuild(self):
        # With threshold 1.0 any degradation rebuilds; cost never exceeds
        # the fresh heuristic's.
        adj = grid_adj()
        weights = edge_weights(adj)
        dyn = GreedyDynamicSteiner(rebuild_threshold=1.0)
        members = frozenset({0, 8})
        tree = dyn.update(adj, None, members)
        for new in (2, 6, 4):
            members = members | {new}
            tree = dyn.update(adj, tree, members)
            fresh = pruned_spt_steiner_tree(adj, members)
            assert tree.cost(weights) <= fresh.cost(weights) + 1e-9

    @given(st.integers(4, 20), st.integers(0, 200), st.integers(3, 12))
    @settings(max_examples=25, deadline=None)
    def test_random_join_leave_sequences_stay_valid(self, n, seed, steps):
        rng = random.Random(seed)
        net = random_connected_network(n, rng)
        adj = spf.network_adjacency(net)
        dyn = GreedyDynamicSteiner()
        members = {rng.randrange(n)}
        tree = dyn.update(adj, None, frozenset(members))
        for _ in range(steps):
            absent = [x for x in range(n) if x not in members]
            if absent and (len(members) == 1 or rng.random() < 0.6):
                members.add(rng.choice(absent))
            else:
                members.remove(rng.choice(sorted(members)))
            tree = dyn.update(adj, tree, frozenset(members))
            tree.validate(members)
            assert tree.is_tree()


def edge_weights_update(dyn, adj, previous, members):
    """``GreedyDynamicSteiner.update`` as it was: one ``edge_weights(adj)``
    map over the whole image per computation, to check tree edges and to
    price the two trees."""
    if not members:
        return MulticastTree.empty()
    if previous is None or not previous.members:
        return dyn._from_scratch(adj, members)
    weights = edge_weights(adj)
    if any(e not in weights for e in previous.edges):
        return dyn._from_scratch(adj, members)
    tree = previous
    try:
        for gone in sorted(previous.members - members):
            tree = prune_member(tree, gone)
        for new in sorted(members - previous.members):
            tree = graft_path(adj, tree, new)
    except TreeError:
        return dyn._from_scratch(adj, members)
    if dyn.rebuild_threshold != float("inf") and len(members) >= 2:
        fresh = (
            kmb_steiner_tree(adj, members)
            if dyn.scratch == "kmb"
            else pruned_spt_steiner_tree(adj, members)
        )
        if tree.cost(weights) > dyn.rebuild_threshold * fresh.cost(weights):
            return fresh
    return MulticastTree(tree.edges, members, tree.root)


class TestEdgeWeightsFormulation:
    @given(
        st.integers(6, 30), st.integers(0, 10_000), st.integers(4, 16),
        st.sampled_from([1.0, 1.2, 1.5]), st.sampled_from(["pruned-spt", "kmb"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_update_returns_the_edge_weights_trees(self, n, seed, steps, threshold, scratch):
        """Over random Waxman images, join/leave sequences and failures of
        non-bridge links: the same trees, edge for edge and member for member."""
        rng = random.Random(seed)
        net = waxman_network(n, rng)
        dyn = GreedyDynamicSteiner(rebuild_threshold=threshold, scratch=scratch)
        members = {rng.randrange(n)}
        tree = None
        for _ in range(steps):
            if rng.random() < 0.2:
                bridges = set(net.bridges())
                spare = sorted(link.key for link in net.links() if link.key not in bridges)
                if spare:
                    net.set_link_state(*rng.choice(spare), up=False)
            absent = [x for x in range(n) if x not in members]
            if absent and (len(members) == 1 or rng.random() < 0.6):
                members.add(rng.choice(absent))
            else:
                members.remove(rng.choice(sorted(members)))
            adj = net.spf_view()
            new = dyn.update(adj, tree, frozenset(members))
            assert new == edge_weights_update(dyn, adj, tree, frozenset(members))
            tree = new
