"""Tests for topology generators: connectivity, density, determinism."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.topo.generators import (
    dumbbell_network,
    grid_network,
    random_connected_network,
    ring_network,
    star_network,
    tree_network,
    waxman_network,
)
from repro.topo.validate import validate_network


class TestWaxman:
    def test_connected_and_valid(self, rng):
        net = waxman_network(50, rng)
        validate_network(net)

    def test_average_degree_near_target(self, rng):
        net = waxman_network(100, rng, target_degree=4.0)
        avg = 2.0 * net.link_count() / net.n
        assert 3.0 <= avg <= 5.0

    def test_deterministic_under_seed(self):
        a = waxman_network(30, random.Random(5))
        b = waxman_network(30, random.Random(5))
        assert [l.key for l in a.links()] == [l.key for l in b.links()]
        assert [l.delay for l in a.links()] == [l.delay for l in b.links()]

    def test_positions_recorded(self, rng):
        net = waxman_network(10, rng)
        assert len(net.positions) == 10
        for x, y in net.positions.values():
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0

    def test_rejects_tiny(self, rng):
        with pytest.raises(ValueError):
            waxman_network(1, rng)

    @given(st.integers(2, 60), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_always_connected(self, n, seed):
        net = waxman_network(n, random.Random(seed))
        assert net.is_connected()


class TestRandomConnected:
    def test_connected_and_valid(self, rng):
        net = random_connected_network(40, rng)
        validate_network(net)

    def test_extra_links_bounded_by_complete_graph(self, rng):
        net = random_connected_network(5, rng, extra_links=100)
        assert net.link_count() <= 10

    def test_delay_range_respected(self, rng):
        net = random_connected_network(30, rng, delay_range=(2.0, 3.0))
        for link in net.links():
            assert 2.0 <= link.delay <= 3.0

    @given(st.integers(2, 50), st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_always_connected(self, n, seed):
        net = random_connected_network(n, random.Random(seed))
        assert net.is_connected()


class TestStructured:
    def test_grid_shape(self):
        net = grid_network(3, 5)
        assert net.n == 15
        # interior degree 4, corner degree 2
        assert net.degree(0) == 2
        assert net.degree(7) == 4
        validate_network(net)

    def test_grid_rejects_empty(self):
        with pytest.raises(ValueError):
            grid_network(0, 3)

    def test_ring(self):
        net = ring_network(6)
        assert all(net.degree(x) == 2 for x in net.switches())
        assert net.diameter_hops() == 3
        with pytest.raises(ValueError):
            ring_network(2)

    def test_star(self):
        net = star_network(7)
        assert net.degree(0) == 6
        assert all(net.degree(x) == 1 for x in range(1, 7))
        with pytest.raises(ValueError):
            star_network(1)

    def test_tree_has_n_minus_one_links(self, rng):
        net = tree_network(25, rng)
        assert net.link_count() == 24
        assert net.is_connected()

    def test_dumbbell(self):
        net = dumbbell_network(4, bridge_delay=9.0)
        assert net.n == 8
        assert net.is_connected()
        assert net.link(3, 4).delay == 9.0
        # a flood pays hops, not the bridge's delay
        assert net.flooding_diameter(per_hop_delay=1.0) == net.diameter_hops()
        with pytest.raises(ValueError):
            dumbbell_network(1)
