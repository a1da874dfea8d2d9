"""Tests for the observability timeline."""

from __future__ import annotations

from random import Random

import pytest

from repro.core import DgmcNetwork, JoinEvent, NodeEvent, ProtocolConfig
from repro.topo.generators import ring_network, waxman_network
from repro.obs.timeline import (
    build_timeline,
    convergence_profile,
    render_timeline,
)


def traced_deployment():
    dgmc = DgmcNetwork(
        ring_network(6), ProtocolConfig(compute_time=0.5, per_hop_delay=0.05)
    )
    dgmc.fabric.record_history = True
    dgmc.register_symmetric(1)
    dgmc.register_symmetric(2)
    dgmc.inject(JoinEvent(0, 1), at=10.0)
    dgmc.inject(JoinEvent(3, 1), at=30.0)
    dgmc.inject(JoinEvent(2, 2), at=50.0)
    dgmc.run()
    return dgmc


class TestBuildTimeline:
    def test_chronological_and_complete(self):
        dgmc = traced_deployment()
        entries = build_timeline(dgmc)
        times = [e.time for e in entries]
        assert times == sorted(times)
        kinds = {e.kind for e in entries}
        assert kinds == {"compute", "install", "flood"}
        assert sum(1 for e in entries if e.kind == "compute") == 3
        assert sum(1 for e in entries if e.kind == "flood") == 3

    def test_connection_filter(self):
        dgmc = traced_deployment()
        entries = build_timeline(dgmc, connection_id=2)
        assert entries
        assert all(e.connection_id == 2 for e in entries)

    def test_flood_detail_mentions_event(self):
        dgmc = traced_deployment()
        floods = [e for e in build_timeline(dgmc) if e.kind == "flood"]
        assert any("V=join" in e.detail for e in floods)


class TestRenderTimeline:
    def test_render_contains_rows(self):
        dgmc = traced_deployment()
        text = render_timeline(build_timeline(dgmc))
        assert "compute" in text and "install" in text and "flood" in text

    def test_limit_truncates(self):
        dgmc = traced_deployment()
        entries = build_timeline(dgmc)
        text = render_timeline(entries, limit=2)
        assert "more)" in text


class TestConvergenceProfile:
    def test_profile_reaches_all_switches(self):
        dgmc = traced_deployment()
        profile = convergence_profile(dgmc, 1)
        assert profile[-1][1] == 6  # every switch settled
        counts = [c for _, c in profile]
        assert counts == sorted(counts)

    def test_profile_tail_matches_last_install(self):
        dgmc = traced_deployment()
        profile = convergence_profile(dgmc, 1)
        assert profile[-1][0] == pytest.approx(dgmc.last_install_time(1))

    def test_empty_for_unknown_connection(self):
        dgmc = traced_deployment()
        assert convergence_profile(dgmc, 99) == []

    def test_failed_switch_is_not_counted_as_settled(self):
        dgmc = DgmcNetwork(waxman_network(10, Random(3)), ProtocolConfig(compute_time=0.5))
        dgmc.register_symmetric(1)
        for at, member in enumerate((0, 4, 7), start=1):
            dgmc.inject(JoinEvent(member, 1), at=10.0 * at)
        dgmc.inject(NodeEvent(9, up=False), at=40.0)
        dgmc.inject(JoinEvent(2, 1), at=50.0)
        dgmc.run()
        assert 9 in dgmc.states_for(1)  # the dead switch still holds its old state
        profile = convergence_profile(dgmc, 1)
        assert len(profile) == 9  # the live switches, each settled once
        assert profile[-1][0] == pytest.approx(dgmc.last_install_time(1))
