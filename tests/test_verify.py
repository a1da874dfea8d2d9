"""Tests for the public deployment verifier."""

from __future__ import annotations

import pytest

from repro.core import DgmcNetwork, JoinEvent, LeaveEvent, NodeEvent, ProtocolConfig
from repro.core.invariants import VerificationError, verify_deployment
from repro.topo.generators import ring_network, waxman_network


def deployment():
    dgmc = DgmcNetwork(
        ring_network(6), ProtocolConfig(compute_time=0.5, per_hop_delay=0.05)
    )
    dgmc.register_symmetric(1)
    return dgmc


class TestVerify:
    def test_clean_deployment_passes(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(3, 1), at=30.0)
        dgmc.run()
        report = verify_deployment(dgmc, 1, expect_members=frozenset({0, 3}))
        assert any("agreement" in c for c in report.checks)
        assert any("topology valid" in c for c in report.checks)

    def test_destroyed_connection_passes(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(LeaveEvent(0, 1), at=30.0)
        dgmc.run()
        report = verify_deployment(dgmc, 1)
        assert any("destroyed" in c for c in report.checks)

    def test_destroyed_with_expectation_fails(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(LeaveEvent(0, 1), at=30.0)
        dgmc.run()
        with pytest.raises(VerificationError, match="destroyed"):
            verify_deployment(dgmc, 1, expect_members=frozenset({0}))

    def test_wrong_membership_expectation_fails(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.run()
        with pytest.raises(VerificationError, match="member list"):
            verify_deployment(dgmc, 1, expect_members=frozenset({0, 5}))

    def test_non_quiescent_fails(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.run(until=10.1)  # mid-computation
        with pytest.raises(VerificationError, match="quiescent"):
            verify_deployment(dgmc, 1)

    def test_survives_node_failure_scenario(self, rng):
        net = waxman_network(20, rng)
        dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
        dgmc.register_symmetric(1)
        for i, sw in enumerate([0, 7, 13]):
            dgmc.inject(JoinEvent(sw, 1), at=10.0 * (i + 1))
        dgmc.run()
        dgmc.inject(NodeEvent(7, up=False), at=100.0)
        dgmc.run()
        report = verify_deployment(dgmc, 1)
        assert any("topology valid" in c for c in report.checks)

    def test_detects_corrupted_state(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(3, 1), at=30.0)
        dgmc.run()
        # simulate a bug: one switch's C stamp runs ahead of R
        state = dgmc.states_for(1)[2]
        ahead = state.current_stamp.snapshot()
        ahead.increment(0, by=5)
        state.current_stamp = ahead
        with pytest.raises(VerificationError):
            verify_deployment(dgmc, 1)
