"""Miscellaneous protocol-layer paths: config, injection, shared sims."""

from __future__ import annotations

import pytest

from repro.core import (
    ConnectionSpec,
    ConnectionType,
    DgmcNetwork,
    JoinEvent,
    ProtocolConfig,
)
from repro.sim.kernel import Simulator
from repro.topo.generators import ring_network


class TestProtocolConfig:
    def test_constant_compute_time(self):
        config = ProtocolConfig(compute_time=2.5)
        assert config.resolve_compute_time(None) == 2.5

    def test_callable_compute_time_scales_with_members(self):
        config = ProtocolConfig(compute_time=lambda state: 0.1 * len(state.members))
        dgmc = DgmcNetwork(ring_network(4), config)
        dgmc.register_symmetric(1)
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(2, 1), at=50.0)
        dgmc.run()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        # first computation: 1 member -> Tc 0.1; install at 10.1
        installs = sorted(r.time for r in dgmc.install_log)
        assert installs[0] == pytest.approx(10.1)


class TestInjection:
    def test_unknown_event_type_rejected(self):
        dgmc = DgmcNetwork(ring_network(4), ProtocolConfig())
        with pytest.raises(TypeError):
            dgmc.inject("join please", at=1.0)

    def test_invalid_switch_raises_at_fire_time(self):
        dgmc = DgmcNetwork(ring_network(4), ProtocolConfig())
        dgmc.register_symmetric(1)
        dgmc.inject(JoinEvent(99, 1), at=1.0)
        with pytest.raises(KeyError):
            dgmc.run()


class TestSharedSimulator:
    def test_two_deployments_share_one_clock(self):
        sim = Simulator()
        a = DgmcNetwork(ring_network(4), ProtocolConfig(compute_time=0.5), sim=sim)
        b = DgmcNetwork(ring_network(5), ProtocolConfig(compute_time=0.5), sim=sim)
        a.register_symmetric(1)
        b.register_symmetric(1)
        a.inject(JoinEvent(0, 1), at=10.0)
        b.inject(JoinEvent(2, 1), at=20.0)
        sim.run()
        assert a.agreement(1)[0] and b.agreement(1)[0]
        assert a.sim is b.sim
        # events interleaved on one clock: b's install after a's
        assert a.last_install_time(1) < b.last_install_time(1)


class TestConnectionSpecPlumbing:
    def test_register_generic_spec(self):
        dgmc = DgmcNetwork(ring_network(4), ProtocolConfig(compute_time=0.2))
        spec = ConnectionSpec(9, ConnectionType.SYMMETRIC)
        dgmc.register_connection(spec)
        dgmc.inject(JoinEvent(0, 9), at=1.0)
        dgmc.inject(JoinEvent(2, 9), at=20.0)
        dgmc.run()
        ok, detail = dgmc.agreement(9)
        assert ok, detail

    def test_states_for_empty_before_any_event(self):
        dgmc = DgmcNetwork(ring_network(4), ProtocolConfig())
        dgmc.register_symmetric(1)
        assert dgmc.states_for(1) == {}
        assert dgmc.last_install_time(1) == 0.0
        assert dgmc.quiescent()
