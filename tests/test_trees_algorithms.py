"""Tests for the TopologyAlgorithm of each MC type and its factory."""

from __future__ import annotations

import pytest

from repro.lsr import spf
from repro.topo.generators import grid_network
from repro.trees.algorithms import (
    RECEIVER,
    SENDER,
    SharedTreeAlgorithm,
    SourceTreesAlgorithm,
    make_algorithm,
    receivers_of,
    senders_of,
)
from repro.trees.base import SHARED, McTopology
from repro.trees.dynamic import GreedyDynamicSteiner, graft_path
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
