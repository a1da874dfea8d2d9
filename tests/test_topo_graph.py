"""Tests for the Network model: links, hosts, distances, link state."""

from __future__ import annotations

import heapq
import math
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.lsr.flooding import FloodingFabric
from repro.sim.kernel import Simulator
from repro.topo.graph import Link, Network


def triangle() -> Network:
    net = Network(3)
    net.add_link(0, 1, delay=1.0)
    net.add_link(1, 2, delay=2.0)
    net.add_link(0, 2, delay=5.0)
    return net


class TestConstruction:
    def test_needs_at_least_one_switch(self):
        with pytest.raises(ValueError):
            Network(0)

    def test_add_link_rejects_self_loop(self):
        net = Network(2)
        with pytest.raises(ValueError, match="self-loop"):
            net.add_link(1, 1)

    def test_add_link_rejects_duplicates_either_direction(self):
        net = Network(3)
        net.add_link(0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            net.add_link(0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            net.add_link(1, 0)

    def test_add_link_rejects_out_of_range(self):
        net = Network(3)
        with pytest.raises(ValueError, match="out of range"):
            net.add_link(0, 3)

    def test_add_link_rejects_nonpositive_delay(self):
        net = Network(2)
        with pytest.raises(ValueError, match="positive"):
            net.add_link(0, 1, delay=0.0)

    def test_link_lookup_symmetric(self):
        net = triangle()
        assert net.link(0, 1) is net.link(1, 0)

    def test_links_sorted_and_counted(self):
        net = triangle()
        keys = [l.key for l in net.links()]
        assert keys == [(0, 1), (0, 2), (1, 2)]
        assert net.link_count() == 3
        net.set_link_state(0, 2, up=False)
        assert net.link_count() == len(list(net.links())) == 2
        assert net.link_count(include_down=True) == 3


class TestLinkObject:
    def test_other_endpoint(self):
        link = Link(3, 7)
        assert link.other(3) == 7
        assert link.other(7) == 3
        with pytest.raises(ValueError):
            link.other(5)

    def test_key_canonical(self):
        assert Link(7, 3).key == (3, 7)


class TestNeighborsAndState:
    def test_neighbors_sorted(self):
        net = triangle()
        assert net.neighbors(0) == [1, 2]
        assert net.degree(1) == 2

    def test_down_link_hidden_from_neighbors(self):
        net = triangle()
        net.set_link_state(0, 1, up=False)
        assert net.neighbors(0) == [2]
        assert net.neighbors(0, include_down=True) == [1, 2]

    def test_link_recovery(self):
        net = triangle()
        net.set_link_state(0, 1, up=False)
        net.set_link_state(0, 1, up=True)
        assert net.neighbors(0) == [1, 2]


class TestDistances:
    def test_hop_distances(self, grid4x4):
        dist = grid4x4.hop_distances(0)
        assert dist[0] == 0
        assert dist[3] == 3
        assert dist[15] == 6  # opposite corner of a 4x4 grid

    def test_delay_distances_prefer_cheap_paths(self):
        net = triangle()
        dist = net.delay_distances(0)
        # direct 0-2 costs 5; the 0-1-2 path costs 3
        assert dist[2] == pytest.approx(3.0)

    def test_distances_respect_down_links(self):
        net = triangle()
        net.set_link_state(0, 1, up=False)
        dist = net.delay_distances(0)
        assert dist[1] == pytest.approx(7.0)  # forced through 2

    def test_unreachable_omitted(self):
        net = Network(3)
        net.add_link(0, 1)
        assert 2 not in net.hop_distances(0)


def sorted_hop_distances(net: Network, source: int) -> dict:
    """The BFS as it was written over sorted neighbour lists."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        x = frontier.popleft()
        for y in net.neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                frontier.append(y)
    return dist


def sorted_delay_distances(net: Network, source: int) -> dict:
    dist: dict = {}
    heap = [(0.0, source)]
    while heap:
        d, x = heapq.heappop(heap)
        if x in dist:
            continue
        dist[x] = d
        for y in net.neighbors(x):
            if y not in dist:
                heapq.heappush(heap, (d + net.link(x, y).delay, y))
    return dist


def probed_bridges(net: Network) -> list:
    """Up links whose failure splits their component, one probe each."""
    out = []
    for link in list(net.links()):
        before = len(sorted_hop_distances(net, link.u))
        net.set_link_state(link.u, link.v, up=False)
        if link.v not in sorted_hop_distances(net, link.u):
            out.append(link.key)
        net.set_link_state(link.u, link.v, up=True)
        assert len(sorted_hop_distances(net, link.u)) == before
    return sorted(out)


@st.composite
def damaged_networks(draw):
    """A random graph with random delays and random failed links."""
    n = draw(st.integers(1, 12))
    net = Network(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
        net.add_link(u, v, delay=draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.25])))
    for link in list(net.links()):
        if draw(st.booleans()):
            net.set_link_state(link.u, link.v, up=False)
    return net


class TestWalksOverTheAdjacency:
    """The walks read the adjacency as stored, not sorted neighbour
    lists, and return exactly what the sorted walks returned."""

    @given(damaged_networks())
    @settings(max_examples=150, deadline=None)
    def test_walks_equal_the_sorted_walks(self, net):
        for x in net.switches():
            assert net.hop_distances(x) == sorted_hop_distances(net, x)
            assert net.delay_distances(x) == sorted_delay_distances(net, x)
            assert net.degree(x) == len(net.neighbors(x))
        assert net.bridges() == probed_bridges(net)


class TestBridgesMemo:
    def test_one_pass_per_up_state_and_a_fresh_list_per_call(self, monkeypatch):
        # A path 0-1-2 closed into a ring by 2-3-0: no bridges until 2-3
        # fails, when every up link is one.
        net = Network(4)
        for u, v in ((0, 1), (1, 2), (2, 3), (0, 3)):
            net.add_link(u, v)
        passes = []
        find = Network._find_bridges
        monkeypatch.setattr(
            Network, "_find_bridges", lambda self: passes.append(1) or find(self)
        )
        first = net.bridges()
        assert first == []
        first.append((9, 9))
        assert net.bridges() == []
        net.set_link_state(2, 3, up=False)
        assert net.bridges() == [(0, 1), (0, 3), (1, 2)]
        net.set_link_state(2, 3, up=True)
        assert net.bridges() == []
        net.set_link_state(2, 3, up=False)
        assert net.bridges() == [(0, 1), (0, 3), (1, 2)]
        assert len(passes) == 2
        net.add_link(1, 3)  # a new link is a new up state
        assert net.bridges() == [(1, 2)]
        assert len(passes) == 3


class TestConnectivity:
    def test_connected(self, grid4x4):
        assert grid4x4.is_connected()

    def test_disconnected_after_cut(self):
        net = Network(4)
        net.add_link(0, 1)
        net.add_link(2, 3)
        assert not net.is_connected()

    def test_diameter_hops(self, grid4x4):
        assert grid4x4.diameter_hops() == 6

    def test_diameter_disconnected_is_minus_one(self):
        net = Network(2)
        assert net.diameter_hops() == -1


class TestFloodingDiameter:
    def test_per_hop_mode(self, grid4x4):
        assert grid4x4.flooding_diameter(per_hop_delay=2.0) == pytest.approx(12.0)

    def test_link_delays_do_not_count(self):
        net = triangle()
        # Link delays 1, 2 and 3, but every pair is one hop apart.
        assert net.flooding_diameter(per_hop_delay=0.5) == 0.5

    def test_infinite_when_disconnected(self):
        net = Network(2)
        assert math.isinf(net.flooding_diameter(per_hop_delay=1.0))


class TestExportCopy:
    def test_to_networkx_preserves_weights(self):
        net = triangle()
        g = net.to_networkx()
        assert g.number_of_nodes() == 3
        assert g.edges[0, 1]["delay"] == 1.0

    def test_to_networkx_hides_down_links(self):
        net = triangle()
        net.set_link_state(0, 1, up=False)
        assert g_edges(net.to_networkx()) == [(0, 2), (1, 2)]
        assert g_edges(net.to_networkx(include_down=True)) == [
            (0, 1),
            (0, 2),
            (1, 2),
        ]

    def test_copy_is_deep(self):
        net = triangle()
        net.set_link_state(0, 1, up=False)
        clone = net.copy()
        assert clone.neighbors(0) == [2]
        clone.set_link_state(0, 1, up=True)
        assert net.neighbors(0) == [2]  # original untouched

    def test_copy_with_down_links_records_them(self):
        """A copy goes through set_link_state: it knows its down links, so
        its distances, flood arrival times and last delta are the
        original's, and a heal on the copy is seen as one."""
        net = triangle()
        net.set_link_state(1, 2, up=False)  # the last link by key
        clone = net.copy()
        assert clone.up_state == net.up_state == (3, frozenset({(1, 2)}))
        for x in net.switches():
            assert clone.hop_distances(x) == net.hop_distances(x)
            assert clone.delay_distances(x) == net.delay_distances(x)
        fabrics = [
            FloodingFabric(Simulator(), g, 0.5, lambda dests, payload: None)
            for g in (net, clone)
        ]
        assert fabrics[0].plan(1).copies() == fabrics[1].plan(1).copies()
        # The last mutation took 1-2 down, not up.
        assert clone.up_delta_since(clone.version - 1) == ((1, 2, 2.0, None),)
        fabric = fabrics[1]
        assert fabric.plan(1).copies() == [(0.5, 0), (1.0, 2)]
        clone.set_link_state(1, 2, up=True)
        assert fabric.plan(1).copies() == [(0.5, 0), (0.5, 2)]


def g_edges(g):
    return sorted(tuple(sorted(e)) for e in g.edges())
