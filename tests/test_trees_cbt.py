"""Tests for core selection and core-based trees."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.lsr import spf
from repro.topo.generators import grid_network, random_connected_network, star_network
from repro.trees.base import TreeError, edge_weights
from repro.trees.cbt import core_based_tree, select_core


def grid_adj():
    return spf.network_adjacency(grid_network(3, 3))


class TestSelectCore:
    def test_median_on_line(self):
        # line 0-1-2-3-4 with members {0, 1, 4}: node 1 minimizes the sum
        # of distances (0+1+3 = 4).
        adj = spf.network_adjacency(grid_network(1, 5))
        core = select_core(adj, [0, 1, 4], strategy="member-median")
        assert core == 1

    def test_median_breaks_ties_to_smallest_id(self):
        # all nodes of a 3x3 grid have total distance 8 to the four
        # corners; the tie-break picks switch 0.
        core = select_core(grid_adj(), [0, 2, 6, 8], strategy="member-median")
        assert core == 0

    def test_first_member_strategy(self):
        assert select_core(grid_adj(), [7, 3, 5], strategy="first-member") == 3

    def test_hub_wins_on_star(self):
        adj = spf.network_adjacency(star_network(6))
        assert select_core(adj, [1, 2, 3], strategy="member-median") == 0

    def test_empty_members_rejected(self):
        with pytest.raises(TreeError):
            select_core(grid_adj(), [])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            select_core(grid_adj(), [0], strategy="psychic")

    def test_deterministic(self):
        a = select_core(grid_adj(), [0, 2, 6, 8])
        b = select_core(grid_adj(), [8, 6, 2, 0])
        assert a == b


class TestCoreBasedTree:
    def test_tree_spans_members_and_core(self):
        tree = core_based_tree(grid_adj(), [0, 8], core=4)
        tree.validate([0, 8, 4])
        assert tree.root == 4

    def test_paths_are_unicast_shortest_paths(self):
        tree = core_based_tree(grid_adj(), [2], core=0)
        assert len(tree.edges) == 2  # 0-1-2

    def test_unreachable_member_raises(self):
        adj = {0: {1: 1.0}, 1: {0: 1.0}, 2: {}}
        with pytest.raises(TreeError):
            core_based_tree(adj, [2], core=0)

    def test_core_only_tree_is_empty(self):
        tree = core_based_tree(grid_adj(), [], core=4)
        assert len(tree.edges) == 0

    def test_bad_core_placement_costs_more(self):
        # members clustered at one corner; a far-corner core wastes edges.
        adj = grid_adj()
        weights = edge_weights(adj)
        members = [0, 1, 3]
        good = core_based_tree(adj, members, select_core(adj, members))
        bad = core_based_tree(adj, members, core=8)
        assert bad.cost(weights) > good.cost(weights)

    @given(st.integers(3, 25), st.integers(0, 300), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_always_valid_on_random_graphs(self, n, seed, k):
        rng = random.Random(seed)
        net = random_connected_network(n, rng)
        adj = spf.network_adjacency(net)
        members = rng.sample(range(n), min(k, n))
        core = select_core(adj, members)
        tree = core_based_tree(adj, members, core)
        tree.validate(set(members) | {core})
        assert tree.is_tree()
