"""Tests for the clustered (hierarchy-shaped) topology generator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.topo.generators import clustered_network
from repro.topo.validate import validate_network


def trunks(net, cluster_size):
    """Links whose endpoints lie in different clusters."""
    return [
        l for l in net.links() if l.u // cluster_size != l.v // cluster_size
    ]


class TestClusteredNetwork:
    def test_shape_and_assignment(self, rng):
        net = clustered_network(3, 10, rng)
        assert net.n == 30
        assert {x // 10 for x in net.switches()} == {0, 1, 2}
        validate_network(net)

    def test_intra_cluster_connectivity(self, rng):
        net = clustered_network(4, 8, rng)
        # removing all trunks leaves each cluster internally connected
        for link in trunks(net, 8):
            net.set_link_state(*link.key, up=False)
        for c in range(4):
            ids = [x for x in net.switches() if x // 8 == c]
            dist = net.hop_distances(ids[0])
            assert set(ids) <= set(dist)

    def test_few_trunks(self, rng):
        net = clustered_network(4, 12, rng, inter_links_per_pair=1)
        assert len(trunks(net, 12)) <= 4  # ring of clusters

    def test_two_clusters_single_pair(self, rng):
        net = clustered_network(2, 6, rng)
        assert len(trunks(net, 6)) == 1

    def test_few_trunk_endpoints(self, rng):
        net = clustered_network(3, 9, rng)
        endpoints = {x for l in trunks(net, 9) for x in (l.u, l.v)}
        # at most two gateway switches per cluster
        assert len(endpoints) <= 6

    def test_rejects_tiny(self, rng):
        with pytest.raises(ValueError):
            clustered_network(1, 10, rng)
        with pytest.raises(ValueError):
            clustered_network(2, 1, rng)

    @given(st.integers(2, 5), st.integers(2, 12), st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_always_connected(self, clusters, size, seed):
        net = clustered_network(clusters, size, random.Random(seed))
        assert net.is_connected()
