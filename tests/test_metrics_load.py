"""Tests for per-switch load distribution metrics."""

from __future__ import annotations

import pytest

from repro.core import DgmcNetwork, JoinEvent, ProtocolConfig
from repro.core.protocol import ComputationRecord
from repro.harness.metrics import LoadDistribution, load_distribution
from repro.topo.generators import ring_network


def records(pairs):
    return [ComputationRecord(float(i), sw, conn) for i, (sw, conn) in enumerate(pairs)]


class TestLoadDistribution:
    def test_counts(self):
        log = records([(0, 1), (0, 1), (2, 1)])
        dist = load_distribution(log, n=4)
        assert dist.total == 3
        assert dist.peak == 2
        assert dist.busy_switches == 2
        assert dist.mean == pytest.approx(0.75)
        assert dist.per_switch == {0: 2, 1: 0, 2: 1, 3: 0}

    def test_connection_filter(self):
        log = records([(0, 1), (1, 2), (1, 2)])
        dist = load_distribution(log, n=3, connection_id=2)
        assert dist.total == 2
        assert dist.per_switch[1] == 2

    def test_empty(self):
        dist = load_distribution([], n=5)
        assert dist.total == 0
        assert dist.peak == 0
        assert dist.jain_fairness() == 1.0

    def test_jain_uniform_is_one(self):
        log = records([(x, 1) for x in range(4)])
        assert load_distribution(log, n=4).jain_fairness() == pytest.approx(1.0)

    def test_jain_concentrated_is_one_over_n(self):
        log = records([(0, 1)] * 10)
        assert load_distribution(log, n=5).jain_fairness() == pytest.approx(0.2)


class TestProtocolLoad:
    def test_sparse_dgmc_loads_only_event_switches(self):
        dgmc = DgmcNetwork(
            ring_network(8), ProtocolConfig(compute_time=0.5, per_hop_delay=0.05)
        )
        dgmc.register_symmetric(1)
        for i, sw in enumerate([0, 3, 6]):
            dgmc.inject(JoinEvent(sw, 1), at=50.0 * (i + 1))
        dgmc.run()
        dist = load_distribution(dgmc.computation_log, n=8)
        assert dist.busy_switches == 3  # only the joiners computed
        assert dist.peak == 1
        assert dist.jain_fairness() < 1.0
