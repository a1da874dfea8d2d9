"""Tests for the Network model: links, hosts, distances, link state."""

from __future__ import annotations

import math

import pytest

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


class TestHosts:
    def test_attach_and_lookup(self):
        net = Network(3)
        net.attach_host("alice", 1, role="speaker")
        host = net.host("alice")
        assert host.ingress == 1
        assert host.attrs["role"] == "speaker"

    def test_duplicate_host_rejected(self):
        net = Network(3)
        net.attach_host("h", 0)
        with pytest.raises(ValueError):
            net.attach_host("h", 1)

    def test_invalid_ingress_rejected(self):
        net = Network(3)
        with pytest.raises(ValueError):
            net.attach_host("h", 9)


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

    def test_delay_mode(self):
        net = triangle()
        # worst pair is (0,2)? distances: 0->2 =3, 1->2=2, 0->1=1 ; ecc of
        # each: 0:3, 1:2, 2:3 -> diameter 3
        assert net.flooding_diameter() == pytest.approx(3.0)

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
        net.attach_host("h", 0)
        net.set_link_state(0, 1, up=False)
        clone = net.copy()
        assert clone.neighbors(0) == [2]
        clone.set_link_state(0, 1, up=True)
        assert net.neighbors(0) == [2]  # original untouched
        assert clone.host("h").ingress == 0


def g_edges(g):
    return sorted(tuple(sorted(e)) for e in g.edges())
