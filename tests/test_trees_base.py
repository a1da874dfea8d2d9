"""Tests for tree/topology value objects."""

from __future__ import annotations

import copy

import pytest

from repro.core.wire import decode_topology, encode_topology
from repro.trees.base import (
    SHARED,
    McTopology,
    MulticastTree,
    TreeError,
    canonical_edge,
    canonical_edges,
    edge_weights,
)


class TestCanonical:
    def test_edge_sorted(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)

    def test_edges_deduplicated(self):
        assert canonical_edges([(1, 2), (2, 1)]) == frozenset({(1, 2)})


class TestMulticastTree:
    def path_tree(self):
        return MulticastTree.build([(0, 1), (1, 2), (2, 3)], members=[0, 3])

    def test_nodes_include_isolated_members(self):
        tree = MulticastTree.build([(0, 1)], members=[0, 1, 9])
        assert tree.nodes() == frozenset({0, 1, 9})

    def test_degree(self):
        tree = self.path_tree()
        assert tree.degree(1) == 2
        assert tree.degree(0) == 1
        assert tree.degree(9) == 0

    def test_cost(self):
        tree = self.path_tree()
        weights = {(0, 1): 1.0, (1, 2): 2.0, (2, 3): 4.0}
        assert tree.cost(weights) == pytest.approx(7.0)

    def test_is_tree_accepts_tree(self):
        assert self.path_tree().is_tree()

    def test_is_tree_rejects_cycle(self):
        cyclic = MulticastTree.build([(0, 1), (1, 2), (0, 2)], members=[0])
        assert not cyclic.is_tree()

    def test_is_tree_rejects_forest(self):
        forest = MulticastTree.build([(0, 1), (2, 3)], members=[0, 3])
        assert not forest.is_tree()

    def test_empty_tree_is_tree(self):
        assert MulticastTree.empty([5]).is_tree()

    def test_spans(self):
        tree = self.path_tree()
        assert tree.spans([0, 3])
        assert tree.spans([0, 1, 2, 3])
        assert not tree.spans([0, 9])

    def test_single_member_always_spanned(self):
        assert MulticastTree.empty([4]).spans([4])

    def test_validate_raises_on_cycle(self):
        cyclic = MulticastTree.build([(0, 1), (1, 2), (0, 2)], members=[0, 2])
        with pytest.raises(TreeError, match="cycle"):
            cyclic.validate()

    def test_validate_raises_on_missing_member(self):
        tree = MulticastTree.build([(0, 1)], members=[0, 1, 7])
        with pytest.raises(TreeError, match="span"):
            tree.validate()

    def test_validate_against_explicit_members(self):
        tree = self.path_tree()
        tree.validate([0, 2])
        with pytest.raises(TreeError):
            tree.validate([0, 8])

    def test_with_members(self):
        tree = self.path_tree().with_members([1, 2])
        assert tree.members == frozenset({1, 2})

    def test_value_equality_and_hash(self):
        a = MulticastTree.build([(0, 1)], [0, 1])
        b = MulticastTree.build([(1, 0)], [1, 0])
        assert a == b
        assert hash(a) == hash(b)

    def test_len_counts_edges(self):
        assert len(self.path_tree()) == 3

    def test_adjacency_is_memoised_read_only_sorted_edge_order(self):
        """Neighbours come as tuples in sorted-edge order, the mapping is
        built once and refuses writes, and copies made after the memo
        carry the same value."""
        tree = MulticastTree.build([(2, 3), (1, 2), (0, 2)], members=[0, 3])
        adj = tree.adjacency()
        assert adj is tree.adjacency()
        assert dict(adj) == {0: (2,), 1: (2,), 2: (0, 1, 3), 3: (2,)}
        with pytest.raises(TypeError):
            adj[9] = ()  # type: ignore[index]
        for clone in (copy.deepcopy(tree), copy.copy(tree)):
            assert clone == tree and dict(clone.adjacency()) == dict(adj)


class TestMcTopology:
    def test_shared_roundtrip(self):
        tree = MulticastTree.build([(0, 1)], [0, 1])
        topo = McTopology.shared(tree)
        assert topo.shared_tree == tree
        assert topo.tree_map() == {SHARED: tree}

    def test_per_source(self):
        t1 = MulticastTree.build([(0, 1)], [0, 1], root=0)
        t2 = MulticastTree.build([(1, 2)], [1, 2], root=2)
        topo = McTopology.per_source({2: t2, 0: t1})
        assert [k for k, _ in topo.trees] == [0, 2]  # sorted
        assert topo.shared_tree is None

    def test_all_edges_union(self):
        t1 = MulticastTree.build([(0, 1), (1, 2)], [0, 2], root=0)
        t2 = MulticastTree.build([(1, 2), (2, 3)], [1, 3], root=3)
        topo = McTopology.per_source({0: t1, 3: t2})
        assert topo.all_edges() == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_edge_nodes_are_the_edges_nodes(self):
        """The memoised node set is the one derived from the edges (an
        isolated member is not in it), and a deep copy or a wire round
        trip, before or after memoisation, carries the same sets."""
        t1 = MulticastTree.build([(0, 1), (1, 2)], [0, 2, 7], root=0)
        t2 = MulticastTree.build([(2, 3)], [2, 3], root=3)
        topo = McTopology.per_source({0: t1, 3: t2})
        cold = copy.deepcopy(topo)
        derived = frozenset(x for edge in topo.all_edges() for x in edge)
        assert topo.edge_nodes() == derived == frozenset({0, 1, 2, 3})
        assert topo.all_edges() is topo.all_edges()
        for clone in (cold, copy.deepcopy(topo), decode_topology(encode_topology(topo))):
            assert clone == topo and hash(clone) == hash(topo)
            assert clone.all_edges() == topo.all_edges()
            assert clone.edge_nodes() == derived
        assert McTopology.empty().edge_nodes() == frozenset()

    def test_total_cost_sums_trees(self):
        t1 = MulticastTree.build([(0, 1)], [0, 1], root=0)
        t2 = MulticastTree.build([(0, 1)], [0, 1], root=1)
        topo = McTopology.per_source({0: t1, 1: t2})
        assert topo.total_cost({(0, 1): 3.0}) == pytest.approx(6.0)

    def test_empty(self):
        assert McTopology.empty().trees == ()
        assert McTopology.empty().all_edges() == frozenset()

    def test_value_equality(self):
        t = MulticastTree.build([(0, 1)], [0, 1])
        assert McTopology.shared(t) == McTopology.shared(t)


class TestEdgeWeights:
    def test_from_adjacency(self):
        adj = {0: {1: 2.0}, 1: {0: 2.0, 2: 3.0}, 2: {1: 3.0}}
        assert edge_weights(adj) == {(0, 1): 2.0, (1, 2): 3.0}
