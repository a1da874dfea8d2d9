"""Tests for SPF computations, cross-checked against networkx."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.lsr import spf
from repro.topo.generators import random_connected_network, waxman_network

#: Few distinct values with repeats: maximizes equal-length paths, the
#: tie-break cases.
WEIGHTS = (0.5, 1.0, 1.0, 1.0, 2.0, 2.5)


@st.composite
def graph_and_source(draw):
    """A random weighted graph (possibly disconnected) and a source."""
    n = draw(st.integers(min_value=3, max_value=10))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    adj = {x: {} for x in range(n)}
    density = draw(st.floats(min_value=0.2, max_value=0.9))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                w = rng.choice(WEIGHTS)
                adj[u][v] = w
                adj[v][u] = w
    return adj, draw(st.integers(min_value=0, max_value=n - 1))


def line_adj():
    # 0 -1- 1 -1- 2 -1- 3 plus a shortcut 0-3 of weight 10
    return {
        0: {1: 1.0, 3: 10.0},
        1: {0: 1.0, 2: 1.0},
        2: {1: 1.0, 3: 1.0},
        3: {2: 1.0, 0: 10.0},
    }


class TestDijkstra:
    def test_line_distances(self):
        dist, parent = spf.dijkstra(line_adj(), 0)
        assert dist == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
        assert parent[0] is None
        assert parent[3] == 2  # cheap path, not the 10.0 shortcut

    def test_unreachable_nodes_absent(self):
        adj = {0: {1: 1.0}, 1: {0: 1.0}, 2: {}}
        dist, parent = spf.dijkstra(adj, 0)
        assert 2 not in dist and 2 not in parent

    def test_deterministic_tie_break_toward_lower_parent(self):
        # two equal-cost paths to 3: via 1 and via 2
        adj = {
            0: {1: 1.0, 2: 1.0},
            1: {0: 1.0, 3: 1.0},
            2: {0: 1.0, 3: 1.0},
            3: {1: 1.0, 2: 1.0},
        }
        _, parent = spf.dijkstra(adj, 0)
        assert parent[3] == 1

    @given(st.integers(2, 40), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_matches_networkx(self, n, seed):
        net = random_connected_network(n, random.Random(seed))
        adj = spf.network_adjacency(net)
        dist, _ = spf.dijkstra(adj, 0)
        expected = nx.single_source_dijkstra_path_length(
            net.to_networkx(), 0, weight="delay"
        )
        assert set(dist) == set(expected)
        for node in dist:
            assert dist[node] == pytest.approx(expected[node])


class TestShortestPath:
    def test_path_nodes(self):
        path = spf.shortest_path(line_adj(), 0, 3)
        assert path == [0, 1, 2, 3]

    def test_path_to_self(self):
        assert spf.shortest_path(line_adj(), 2, 2) == [2]

    def test_unreachable_returns_none(self):
        adj = {0: {}, 1: {}}
        assert spf.shortest_path(adj, 0, 1) is None

    def test_path_edges_canonical(self):
        assert spf.path_edges([3, 1, 2]) == [(1, 3), (1, 2)]


class TestRoutingTable:
    def test_next_hops_on_line(self):
        table = spf.routing_table(line_adj(), 0)
        assert table == {1: 1, 2: 1, 3: 1}

    def test_next_hop_is_a_neighbor(self, rng):
        net = waxman_network(30, rng)
        adj = spf.network_adjacency(net)
        for src in (0, 7, 15):
            table = spf.routing_table(adj, src)
            for dest, hop in table.items():
                assert hop in adj[src]
                assert dest != src

    def test_following_next_hops_reaches_destination(self, rng):
        net = waxman_network(25, rng)
        adj = spf.network_adjacency(net)
        tables = {x: spf.routing_table(adj, x) for x in net.switches()}
        for dest in (3, 12, 24):
            node = 0
            for _ in range(net.n):
                if node == dest:
                    break
                node = tables[node][dest]
            assert node == dest


class TestRoutingTableLinear:
    """The first-hop build is a single pass, not a chain walk."""

    def test_path_graph_is_linear(self):
        """n=10k path graph: total chain steps bounded by O(n), where the
        old per-destination parent-chain walk did ~n^2/2."""
        n = 10_000
        adj = {i: {} for i in range(n)}
        for i in range(n - 1):
            adj[i][i + 1] = 1.0
            adj[i + 1][i] = 1.0
        before = spf.TABLE_STEP_COUNTER.count
        table = spf.routing_table(adj, 0)
        steps = spf.TABLE_STEP_COUNTER.count - before
        assert steps <= 2 * n
        assert len(table) == n - 1
        assert all(hop == 1 for hop in table.values())

    @settings(max_examples=40, deadline=None)
    @given(case=graph_and_source())
    def test_matches_naive_chain_walk(self, case):
        """The single-pass table equals the per-destination chain walk."""
        adj, source = case
        dist, parent = spf.dijkstra_uncached(adj, source)
        naive = {}
        for dest in dist:
            if dest == source:
                continue
            hop = dest
            while parent[hop] != source:
                hop = parent[hop]
            naive[dest] = hop
        assert repr(spf.first_hop_table(source, dist, parent)) == repr(naive)


class TestNetworkAdjacency:
    def test_respects_down_links(self, grid4x4):
        grid4x4.set_link_state(0, 1, up=False)
        adj = spf.network_adjacency(grid4x4)
        assert 1 not in adj[0]
        adj_all = spf.network_adjacency(grid4x4, include_down=True)
        assert 1 in adj_all[0]


class TestSearch:
    """``spf.search`` is the one heap loop: stopped at a target it keeps
    the full run's parent chain, and it counts no run."""

    @settings(max_examples=60, deadline=None)
    @given(graph_and_source())
    def test_stopping_at_a_target_keeps_its_path(self, case):
        adj, source = case
        dist, parent = spf.search(adj, source)
        for target in adj:
            stopped_dist, stopped_parent = spf.search(adj, source, target)
            if target not in dist:
                assert target not in stopped_parent
                continue
            assert stopped_dist[target] == dist[target]
            assert spf.path_to(stopped_parent, target) == spf.path_to(parent, target)

    def test_search_counts_no_run(self):
        before = spf.RUN_COUNTER.count
        spf.search(line_adj(), 0)
        spf.search(line_adj(), 0, 3)
        assert spf.RUN_COUNTER.count == before
