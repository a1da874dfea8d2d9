"""Failure-path tests for the agreement check shared by both backends.

``check_agreement`` is the single arbiter of "did the network converge":
the discrete-event :class:`~repro.core.protocol.DgmcNetwork` and the live
:class:`~repro.net.fabric.LiveFabric` both delegate to it.  These tests
feed it deliberately diverged states and assert the mismatch report names
the disagreeing switch and connection -- a bare ``False`` is useless when
a 100-switch run diverges.
"""

from __future__ import annotations

from repro.core.invariants import check_agreement
from repro.core.mc import ConnectionSpec, ConnectionType
from repro.core.protocol import DgmcNetwork
from repro.core.state import McState
from repro.topo.graph import Network
from repro.trees.base import McTopology, MulticastTree
from tests.stamps import S


N = 4
CID = 7


def make_state(
    members=(0, 1),
    stamp=S(1, 1, 0, 0),
    edges=((0, 1),),
) -> McState:
    state = McState(ConnectionSpec(CID, ConnectionType.SYMMETRIC), N)
    for x in members:
        state.apply_join(x, None)
    topo = McTopology.shared(MulticastTree.build(list(edges), list(members)))
    state.install(topo, stamp, now=1.0, proposer=0)
    return state


class TestAgreement:
    def test_identical_states_agree(self):
        ok, detail = check_agreement(CID, {0: make_state(), 1: make_state()})
        assert ok
        assert f"connection {CID}" in detail
        assert "2 switches agree" in detail

    def test_no_state_anywhere_agrees(self):
        ok, detail = check_agreement(CID, {})
        assert ok
        assert "destroyed" in detail

    def test_member_list_mismatch_names_switch(self):
        states = {
            0: make_state(members=(0, 1)),
            1: make_state(members=(0, 1)),
            2: make_state(members=(0, 1, 2), edges=((0, 1), (1, 2))),
        }
        ok, detail = check_agreement(CID, states)
        assert not ok
        assert f"connection {CID}" in detail
        assert "switch 2" in detail
        assert "member list" in detail

    def test_stamp_mismatch_names_switch(self):
        states = {
            0: make_state(stamp=S(1, 1, 0, 0)),
            3: make_state(stamp=S(1, 2, 0, 0)),
        }
        ok, detail = check_agreement(CID, states)
        assert not ok
        assert "switch 3" in detail
        assert "C mismatch" in detail
        # The report shows both stamps so the divergence is readable.
        assert "{0: 1, 1: 1}" in detail and "{0: 1, 1: 2}" in detail

    def test_topology_mismatch_names_switch(self):
        states = {
            0: make_state(members=(0, 2), edges=((0, 1), (1, 2))),
            1: make_state(members=(0, 2), edges=((0, 3), (2, 3))),
        }
        ok, detail = check_agreement(CID, states)
        assert not ok
        assert "switch 1" in detail
        assert "topology" in detail

    def test_reference_switch_is_lowest_id(self):
        """The reference is deterministic (min id), so reports are stable."""
        states = {
            5: make_state(stamp=S(9, 0, 0, 0)),
            2: make_state(stamp=S(1, 0, 0, 0)),
        }
        ok, detail = check_agreement(CID, states)
        assert not ok
        assert "vs switch 2" in detail
        assert "switch 5" in detail


class TestDgmcNetworkAgreement:
    """The network-level wrapper must surface the same diagnostics."""

    def _net(self) -> DgmcNetwork:
        net = Network(3)
        net.add_link(0, 1, delay=1.0)
        net.add_link(1, 2, delay=1.0)
        dgmc = DgmcNetwork(net)
        dgmc.register_symmetric(CID)
        return dgmc

    def test_agreement_after_tampering_names_culprit(self):
        from repro.core.events import JoinEvent

        dgmc = self._net()
        dgmc.inject(JoinEvent(0, CID), at=1.0)
        dgmc.inject(JoinEvent(2, CID), at=50.0)
        dgmc.run()
        ok, _ = dgmc.agreement(CID)
        assert ok
        # Tamper with one switch's converged state post-run.
        dgmc.switches[1].states[CID].apply_leave(0)
        ok, detail = dgmc.agreement(CID)
        assert not ok
        assert "switch 1" in detail
        assert f"connection {CID}" in detail

    def test_agreement_skips_dead_switches(self):
        from repro.core.events import JoinEvent

        dgmc = self._net()
        dgmc.inject(JoinEvent(0, CID), at=1.0)
        dgmc.inject(JoinEvent(2, CID), at=50.0)
        dgmc.run()
        # A failed switch's stale state must not break agreement.
        dgmc.switches[1].states[CID].apply_leave(0)
        dgmc.dead_switches.add(1)
        ok, _ = dgmc.agreement(CID)
        assert ok
