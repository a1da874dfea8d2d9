"""Tests for the TopologyAlgorithm of each MC type and its factory."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.lsr import spf
from repro.lsr.spfcache import SpfCache
from repro.topo.generators import grid_network
from repro.trees.algorithms import (
    RECEIVER,
    SENDER,
    SharedTreeAlgorithm,
    SourceTreesAlgorithm,
    dominant_members,
    make_algorithm,
    reachable_members,
    receivers_of,
    senders_of,
)
from repro.trees.base import SHARED, McTopology, MulticastTree
from repro.trees.dynamic import GreedyDynamicSteiner, graft_path
from repro.trees.spt import prune_to_receivers, source_rooted_tree
from repro.trees.steiner import pruned_spt_steiner_tree


BOTH = frozenset((SENDER, RECEIVER))
RX = frozenset((RECEIVER,))
TX = frozenset((SENDER,))


def grid_adj():
    return spf.network_adjacency(grid_network(3, 3))


class TestRoleHelpers:
    def test_receivers_and_senders(self):
        members = {0: BOTH, 1: RX, 2: TX}
        assert receivers_of(members) == frozenset({0, 1})
        assert senders_of(members) == frozenset({0, 2})


class TestSharedTree:
    def test_default_method_spans_members(self):
        algo = SharedTreeAlgorithm()
        topo = algo.compute(grid_adj(), {0: BOTH, 8: BOTH}, None)
        topo.shared_tree.validate([0, 8])

    def test_incremental_uses_previous(self, monkeypatch):
        monkeypatch.setattr(GreedyDynamicSteiner, "REBUILD_THRESHOLD", float("inf"))
        algo = SharedTreeAlgorithm()
        t1 = algo.compute(grid_adj(), {0: BOTH, 8: BOTH}, None)
        t2 = algo.compute(grid_adj(), {0: BOTH, 8: BOTH, 2: BOTH}, t1)
        assert t2.shared_tree == graft_path(grid_adj(), t1.shared_tree, 2)

    def test_first_tree_is_the_pruned_spt(self):
        topo = SharedTreeAlgorithm().compute(grid_adj(), {0: BOTH, 2: BOTH, 6: BOTH}, None)
        assert topo.shared_tree == pruned_spt_steiner_tree(grid_adj(), {0, 2, 6})

    def test_empty_membership(self):
        algo = SharedTreeAlgorithm()
        assert algo.compute(grid_adj(), {}, None) == McTopology.empty()

    def test_determinism_across_instances(self):
        # Two switches with separate algorithm instances and identical
        # inputs must produce identical topologies (D-GMC requirement).
        members = {0: BOTH, 4: BOTH, 8: BOTH}
        a = SharedTreeAlgorithm().compute(grid_adj(), members, None)
        b = SharedTreeAlgorithm().compute(grid_adj(), members, None)
        assert a == b


class TestSourceTrees:
    def test_one_tree_per_sender(self):
        algo = SourceTreesAlgorithm()
        members = {0: TX, 4: TX, 8: RX, 2: RX}
        topo = algo.compute(grid_adj(), members, None)
        trees = topo.tree_map()
        assert sorted(trees) == [0, 4]
        for sender, tree in trees.items():
            tree.validate({2, 8} | {sender})
            assert tree.root == sender

    def test_sender_receiver_overlap(self):
        algo = SourceTreesAlgorithm()
        members = {0: BOTH, 8: BOTH}
        topo = algo.compute(grid_adj(), members, None)
        assert sorted(topo.tree_map()) == [0, 8]

    def test_no_senders_or_receivers_empty(self):
        algo = SourceTreesAlgorithm()
        assert algo.compute(grid_adj(), {0: RX}, None) == McTopology.empty()
        assert algo.compute(grid_adj(), {0: TX}, None) == McTopology.empty()


class TestFactory:
    def test_symmetric_and_receiver_only_are_shared(self):
        assert isinstance(make_algorithm("symmetric"), SharedTreeAlgorithm)
        assert isinstance(make_algorithm("receiver-only"), SharedTreeAlgorithm)

    def test_asymmetric_is_source_trees(self):
        assert isinstance(make_algorithm("asymmetric"), SourceTreesAlgorithm)

    def test_one_instance_per_type(self):
        for ctype in ("symmetric", "receiver-only", "asymmetric"):
            assert make_algorithm(ctype) is make_algorithm(ctype)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            make_algorithm("broadcast")


def _reach(adj, anchor):
    """Every node a DFS from ``anchor`` reaches (the oracle's one walk)."""
    seen = {anchor}
    stack = [anchor]
    while stack:
        for nbr in adj.get(stack.pop(), ()):
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return seen


def _oracle_reachable(adj, members, anchor=None):
    if not members:
        return members
    if anchor is None:
        anchor = min(members)
    seen = _reach(adj, anchor)
    return frozenset(m for m in members if m in seen)


def _oracle_dominant(adj, members):
    remaining = set(members)
    best = frozenset()
    while remaining:
        anchor = min(remaining)
        seen = _reach(adj, anchor)
        component = frozenset(m for m in remaining if m in seen) | {anchor}
        if len(component) > len(best):
            best = component
        remaining -= component
    return best


@st.composite
def partitioned_images(draw):
    """``(adj, members)``: a random symmetric image over ``0..n-1`` (often
    partitioned, isolated nodes included) and members drawn from
    ``0..n+3``, so ids ``n`` and up are ghosts absent from the image."""
    n = draw(st.integers(1, 12))
    adj = {x: {} for x in range(n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else ():
        weight = float(draw(st.integers(1, 4)))
        adj[u][v] = adj[v][u] = weight
    members = draw(st.frozensets(st.integers(0, n + 3), max_size=n + 4))
    return adj, members


class TestComponentPartition:
    """reachable_members / dominant_members read the image's component
    labels; a DFS per call is the oracle, on a plain dict and on a cached
    view alike."""

    @given(partitioned_images())
    @settings(max_examples=300, deadline=None)
    def test_labels_equal_a_dfs(self, case):
        adj, members = case
        for view in (adj, SpfCache(adj)):
            assert reachable_members(view, members) == _oracle_reachable(adj, members)
            for anchor in range(len(adj) + 4):
                assert reachable_members(view, members, anchor=anchor) == (
                    _oracle_reachable(adj, members, anchor)
                ), anchor
            assert dominant_members(view, members) == _oracle_dominant(adj, members)

    @given(partitioned_images())
    @settings(max_examples=150, deadline=None)
    def test_pruned_spt_needs_no_prune(self, case):
        adj, members = case
        terms = _oracle_dominant(adj, members)
        if not terms:
            return
        for view in (adj, SpfCache(adj)):
            anchor = min(terms)
            composed = prune_to_receivers(
                source_rooted_tree(view, anchor, terms - {anchor}), terms
            )
            pruned = pruned_spt_steiner_tree(view, terms)
            assert pruned == MulticastTree(composed.edges, terms, root=None)
            # Same iteration order too: the rebuild test's float sums run
            # over it.
            assert list(pruned.edges) == list(composed.edges)

    @given(st.frozensets(st.integers(0, 35), min_size=2))
    @settings(max_examples=60, deadline=None)
    def test_pruned_spt_iterates_as_the_composition_did(self, terms):
        # Trees of 20-35 edges, where a set copied in one pass and one
        # grown edge by edge mostly iterate in different orders.
        adj = spf.network_adjacency(grid_network(6, 6))
        anchor = min(terms)
        composed = prune_to_receivers(
            source_rooted_tree(adj, anchor, terms - {anchor}), terms
        )
        assert list(pruned_spt_steiner_tree(adj, terms).edges) == list(composed.edges)

    @given(st.lists(st.integers(0, 63), min_size=1, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_connected_members_iterate_as_the_grouping_built_them(self, order):
        # Inserted in drawn order, a set of colliding ids iterates apart
        # from one built in sorted order, which is what the grouping pass
        # made and what the one-label shortcut must make too.
        members = frozenset(order)
        adj = spf.network_adjacency(grid_network(8, 8))
        for view in (adj, SpfCache(adj)):
            got = dominant_members(view, members)
            assert got == members
            assert list(got) == list(frozenset(sorted(members)))

    def test_ghosts_are_groups_of_their_own(self):
        # Two live members apart, two ghosts: the ghosts would win as one
        # group; as two, the tie goes to the smallest member id.
        adj = {0: {}, 1: {}}
        assert dominant_members(adj, frozenset({0, 1, 5, 6})) == frozenset({0})
        assert reachable_members(adj, frozenset({0, 5, 6}), anchor=5) == frozenset({5})
