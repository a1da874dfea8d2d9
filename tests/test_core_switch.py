"""Switch-level tests of the EventHandler / ReceiveLSA mechanics.

These drive small, hand-analyzable deployments through specific protocol
paths: single events, conflicting events, proposal withdrawal, deferral,
MC creation and destruction (Figure 2 / Figures 4-5 behaviors).
"""

from __future__ import annotations

from random import Random

import pytest

from repro.core import (
    DgmcNetwork,
    JoinEvent,
    LeaveEvent,
    LinkEvent,
    ProtocolConfig,
    Role,
)
from repro.core.lsa import McEvent
from repro.topo.generators import grid_network, ring_network, waxman_network
from tests.stamps import base_of


def deployment(net=None, **config_kw):
    config_kw.setdefault("compute_time", 1.0)
    config_kw.setdefault("per_hop_delay", 0.1)
    dgmc = DgmcNetwork(net or ring_network(4), ProtocolConfig(**config_kw))
    dgmc.register_symmetric(1)
    return dgmc


class TestSingleEvent:
    def test_one_computation_one_flood(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        dgmc.run()
        assert dgmc.total_computations() == 1
        assert dgmc.mc_floodings() == 1
        assert dgmc.computation_log[0].switch == 0

    def test_all_switches_create_state_on_first_join(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(2, 1), at=1.0)
        dgmc.run()
        for x, sw in dgmc.switches.items():
            assert sw.has_connection(1)
            assert sw.states[1].member_set == frozenset({2})

    def test_event_lsa_carries_proposal_and_all_install(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        dgmc.inject(JoinEvent(2, 1), at=50.0)
        dgmc.run()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        state = dgmc.states_for(1)[1]
        tree = state.installed.shared_tree
        tree.validate({0, 2})

    def test_compute_time_respected(self):
        dgmc = deployment(compute_time=5.0)
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        dgmc.run()
        # flood happens after the Tc window
        state = dgmc.states_for(1)[0]
        assert state.last_install_time == pytest.approx(6.0)


class TestConflictingEvents:
    def test_simultaneous_events_trigger_extra_work(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        dgmc.inject(JoinEvent(2, 1), at=1.0)
        dgmc.run()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        # both origins computed; consensus may need triggered proposals
        assert dgmc.total_computations() >= 2
        assert dgmc.mc_floodings() >= 2

    def test_conflicting_events_converge_to_union(self):
        dgmc = deployment()
        for sw in (0, 1, 2, 3):
            dgmc.inject(JoinEvent(sw, 1), at=1.0)
        dgmc.run()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        assert dgmc.states_for(1)[0].member_set == frozenset({0, 1, 2, 3})

    def test_event_during_computation_withdraws_or_defers(self):
        # Switch 0's computation takes 10 time units; switch 2's event LSA
        # arrives mid-computation, so 0's EventHandler floods without a
        # proposal (deferral) and ReceiveLSA eventually proposes.
        dgmc = deployment(compute_time=10.0, per_hop_delay=0.1)
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        dgmc.inject(JoinEvent(2, 1), at=1.5)
        dgmc.run()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        switches = dgmc.switches
        deferred = sum(sw.triggered_lsas_flooded for sw in switches.values())
        withdrawn = sum(
            st.proposals_withdrawn
            for sw in switches.values()
            for st in sw.states.values()
        )
        # at least one switch had to fall back to the ReceiveLSA path
        assert deferred + withdrawn >= 1


class TestDestruction:
    def test_last_leave_destroys_state_everywhere(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        dgmc.inject(JoinEvent(2, 1), at=20.0)
        dgmc.inject(LeaveEvent(0, 1), at=40.0)
        dgmc.inject(LeaveEvent(2, 1), at=60.0)
        dgmc.run()
        for sw in dgmc.switches.values():
            assert not sw.has_connection(1)
        ok, detail = dgmc.agreement(1)
        assert ok and "destroyed" in detail

    def test_connection_can_be_recreated(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        dgmc.inject(LeaveEvent(0, 1), at=20.0)
        dgmc.inject(JoinEvent(3, 1), at=40.0)
        dgmc.run()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        assert dgmc.states_for(1)[0].member_set == frozenset({3})


class TestLinkEvents:
    def test_link_event_does_not_change_membership(self):
        dgmc = deployment(net=ring_network(4))
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        dgmc.inject(JoinEvent(1, 1), at=20.0)
        dgmc.run()
        members_before = dgmc.states_for(1)[2].member_set
        dgmc.inject(LinkEvent(0, 0, 1, up=False), at=40.0)
        dgmc.run()
        assert dgmc.states_for(1)[2].member_set == members_before

    def test_tree_reroutes_around_failed_link(self):
        dgmc = deployment(net=ring_network(4))
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        dgmc.inject(JoinEvent(1, 1), at=20.0)
        dgmc.run()
        tree = dgmc.states_for(1)[0].installed.shared_tree
        assert (0, 1) in tree.edges
        dgmc.inject(LinkEvent(0, 0, 1, up=False), at=40.0)
        dgmc.run()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        tree = dgmc.states_for(1)[0].installed.shared_tree
        assert (0, 1) not in tree.edges
        tree.validate({0, 1})

    def test_unaffected_connection_sees_no_mc_event(self):
        net = grid_network(2, 3)
        dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=1.0, per_hop_delay=0.1))
        dgmc.register_symmetric(1)
        dgmc.register_symmetric(2)
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        dgmc.inject(JoinEvent(1, 1), at=20.0)  # conn 1 tree: edge (0,1)
        dgmc.inject(JoinEvent(4, 2), at=40.0)
        dgmc.inject(JoinEvent(5, 2), at=60.0)  # conn 2 tree: edge (4,5)
        dgmc.run()
        events_before = dgmc.mc_event_count
        # fail a link only connection 1 uses
        dgmc.inject(LinkEvent(0, 0, 1, up=False), at=80.0)
        dgmc.run()
        assert dgmc.mc_event_count == events_before + 1  # only conn 1 affected

    def test_link_recovery_silent_by_default(self):
        dgmc = deployment(net=ring_network(4))
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        dgmc.inject(JoinEvent(1, 1), at=20.0)
        dgmc.inject(LinkEvent(0, 0, 1, up=False), at=40.0)
        dgmc.run()
        before = dgmc.mc_event_count
        dgmc.inject(LinkEvent(0, 0, 1, up=True), at=60.0)
        dgmc.run()
        assert dgmc.mc_event_count == before

    def test_link_recovery_reoptimizes_when_enabled(self):
        net = ring_network(4)
        dgmc = DgmcNetwork(
            net,
            ProtocolConfig(
                compute_time=1.0, per_hop_delay=0.1, reoptimize_on_link_up=True
            ),
        )
        dgmc.register_symmetric(1)
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        dgmc.inject(JoinEvent(1, 1), at=20.0)
        dgmc.inject(LinkEvent(0, 0, 1, up=False), at=40.0)
        dgmc.run()
        dgmc.inject(LinkEvent(0, 0, 1, up=True), at=60.0)
        dgmc.run()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        tree = dgmc.states_for(1)[2].installed.shared_tree
        assert tree.edges == frozenset({(0, 1)})  # direct link restored


class TestAffectedConnections:
    """Truth table of the detector's rule, at switch 1 of the line 0-1-2.

    Connection 1 has members {0, 2} (its tree uses both edges),
    connection 2 has members {0, 1} (edge (1, 2) unused).
    """

    def line(self, **config_kw):
        dgmc = deployment(net=grid_network(1, 3), **config_kw)
        dgmc.register_symmetric(2)
        for k, (switch, conn) in enumerate([(0, 1), (2, 1), (0, 2), (1, 2)]):
            dgmc.inject(JoinEvent(switch, conn), at=1.0 + 20.0 * k)
        dgmc.run()
        return dgmc, dgmc.switches[1]

    def fail_and_settle(self, dgmc):
        dgmc.fire_event(LinkEvent(1, 1, 2, up=False))
        dgmc.run()

    def test_down_selects_connections_using_the_edge(self):
        _, detector = self.line()
        assert detector.affected_connections(1, 2, up=False) == [1]
        assert detector.affected_connections(2, 1, up=False) == [1]
        assert detector.affected_connections(0, 1, up=False) == [1, 2]

    def test_up_is_a_non_event_for_healthy_trees(self):
        _, detector = self.line()
        assert detector.affected_connections(1, 2, up=True) == []

    def test_up_selects_degraded_trees(self):
        dgmc, detector = self.line()
        self.fail_and_settle(dgmc)  # member 2 unreachable: tree 1 degraded
        state = detector.states[1]
        assert not state.installed.spans(state.member_set)
        assert detector.affected_connections(1, 2, up=True) == [1]

    def test_up_selects_computations_in_flight(self):
        dgmc, detector = self.line()
        dgmc.fire_event(LinkEvent(1, 1, 2, up=False))
        dgmc.sim.run_instant()  # EventHandler() now holds the CPU for Tc
        assert [c.connection_id for c in detector.inflight_computes] == [1]
        state = detector.states[1]
        assert state.installed.spans(state.member_set)  # old tree, still whole
        assert detector.affected_connections(1, 2, up=True) == [1]

    def test_up_selects_everything_under_reoptimize(self):
        _, detector = self.line(reoptimize_on_link_up=True)
        assert detector.affected_connections(1, 2, up=True) == [1, 2]

    def test_up_selects_nothing_when_repair_is_ablated(self):
        dgmc, detector = self.line(ablate_degraded_repair=True)
        self.fail_and_settle(dgmc)
        assert detector.affected_connections(1, 2, up=True) == []


class TestRoles:
    def test_asymmetric_join_roles_propagate(self):
        net = ring_network(4)
        dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=1.0, per_hop_delay=0.1))
        dgmc.register_asymmetric(1)
        dgmc.inject(JoinEvent(0, 1, role=Role.SENDER), at=1.0)
        dgmc.inject(JoinEvent(2, 1, role=Role.RECEIVER), at=20.0)
        dgmc.run()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        state = dgmc.states_for(1)[3]
        assert state.members[0] == frozenset({"sender"})
        assert state.members[2] == frozenset({"receiver"})
        trees = state.installed.tree_map()
        assert list(trees) == [0]
        trees[0].validate({0, 2})

    def test_asymmetric_join_without_role_rejected(self):
        net = ring_network(4)
        dgmc = DgmcNetwork(net, ProtocolConfig())
        dgmc.register_asymmetric(1)
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        with pytest.raises(ValueError):
            dgmc.run()


class TestForwardingView:
    def test_forwarding_links_incident_only(self):
        dgmc = deployment(net=ring_network(4))
        dgmc.inject(JoinEvent(0, 1), at=1.0)
        dgmc.inject(JoinEvent(2, 1), at=20.0)
        dgmc.run()
        for x, sw in dgmc.switches.items():
            for edge in sw.forwarding_links(1):
                assert x in edge

    def test_forwarding_links_empty_without_state(self):
        dgmc = deployment()
        assert dgmc.switches[0].forwarding_links(1) == []


class TestRegistry:
    def test_unregistered_connection_rejected(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 99), at=1.0)
        with pytest.raises(KeyError):
            dgmc.run()

    def test_duplicate_registration_rejected(self):
        dgmc = deployment()
        with pytest.raises(ValueError):
            dgmc.register_symmetric(1)


class TestStampSharing:
    """White box: pins *sharing*, not timing (docs/protocol-walkthrough.md,
    "How a stamp is stored and compared").  A refactor that silently puts
    every stamp back on a base of its own keeps every count and every byte
    -- and loses the overlay walk; it should fail here, not in a benchmark."""

    N = 48
    ROUNDS = 12

    def bases(self, dgmc, stamp_of, skip=()):
        """The distinct base objects, keyed by identity (and kept alive)."""
        found = (
            base_of(stamp_of(switch.states[1]))
            for x, switch in dgmc.switches.items()
            if x not in skip
        )
        return {id(base): base for base in found}

    def settle(self, dgmc, *events):
        at = dgmc.sim.now + 1.0
        for event in events:
            dgmc.inject(event, at=at)
        dgmc.run()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        (shared,) = self.bases(dgmc, lambda s: s.current_stamp).values()  # C: one base
        return shared

    def test_converged_switches_sit_on_one_base(self):
        rng = Random(21)
        dgmc = deployment(waxman_network(self.N, Random(7)))
        members = rng.sample(range(self.N), 24)
        for x in members:
            shared = self.settle(dgmc, JoinEvent(x, 1))
        kept = 0
        for _ in range(self.ROUNDS):  # a join and a leave in conflict
            joiner = rng.choice([x for x in range(self.N) if x not in members])
            leaver = members.pop(rng.randrange(len(members)))
            members.append(joiner)
            found = shared
            shared = self.settle(dgmc, JoinEvent(joiner, 1), LeaveEvent(leaver, 1))
            kept += shared is found
            # Two originators may have folded the same content into a base
            # each: E is on the one whose proposal arrived last, nowhere else.
            expected = self.bases(dgmc, lambda s: s.expected, skip=(joiner, leaver))
            assert len(expected) <= 2
        # Bases outlive events: a round leaves C on the base it found unless
        # an overlay was folded (about one round in four at this size).
        assert kept >= self.ROUNDS // 2
        # One quiet event: every receiver's E is on the base of the C it accepted.
        joiner = next(x for x in range(self.N) if x not in members)
        shared = self.settle(dgmc, JoinEvent(joiner, 1))
        assert list(self.bases(dgmc, lambda s: s.expected, skip=(joiner,))) == [id(shared)]
        # R rebases only where ``R >= E`` is evaluated -- at originators.
        assert len(self.bases(dgmc, lambda s: s.received)) > 2
