"""Regression tests for the paper-pseudocode defects fixed in this repo.

Each test reproduces the concrete scenario in which implementing Figures
4-5 *verbatim* breaks (DESIGN.md §4b), and asserts the fixed behavior.
These scenarios were discovered by the property suite and the Experiment 2
reproduction; keep them deterministic so the defects can never sneak back.
"""

from __future__ import annotations

import pytest

from repro.core import (
    DgmcNetwork,
    JoinEvent,
    LeaveEvent,
    ProtocolConfig,
)
from repro.core.switch import DgmcSwitch
from repro.harness.figures import (
    EXP2_COMPUTE,
    EXP2_PER_HOP,
    _bursty_scenario,
)
from repro.sim.rng import RngRegistry
from repro.topo.generators import ring_network, waxman_network
from tests.stamps import S


class TestWithdrawalScopeFix:
    """DESIGN.md deviation 2: withdrawal must not discard received candidates.

    Historical failure: Experiment 2 (WAN regime, dense burst), seed 1996,
    size 20, graph 1 -- switch 19's compute windows always overlapped new
    arrivals, every own proposal was withdrawn, and the verbatim line 29
    threw away the received winning proposals batch after batch, leaving
    switch 19 permanently split (proposer 3 vs proposer 1 elsewhere).
    """

    def test_dense_wan_burst_converges(self):
        reg = RngRegistry(1996).fork("size=20/graph=1")
        scenario = _bursty_scenario(20, 1, reg, EXP2_PER_HOP, EXP2_COMPUTE, "reg")
        config = ProtocolConfig(
            compute_time=scenario.compute_time,
            per_hop_delay=scenario.per_hop_delay,
        )
        dgmc = DgmcNetwork(scenario.net, config)
        dgmc.register_symmetric(1)
        t = 4 * scenario.round_length
        for sw in sorted(scenario.schedule.initial_members):
            dgmc.inject(JoinEvent(sw, 1), at=t)
            t += 4 * scenario.round_length
        dgmc.run()
        t0 = dgmc.sim.now + 4 * scenario.round_length
        for ev in scenario.schedule.events:
            event = JoinEvent(ev.switch, 1) if ev.join else LeaveEvent(ev.switch, 1)
            dgmc.inject(event, at=t0 + ev.time)
        dgmc.run()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        # withdrawals definitely happened (the fix mattered in this run)
        withdrawn = sum(
            st.proposals_withdrawn
            for sw in dgmc.switches.values()
            for st in sw.states.values()
        )
        assert withdrawn > 0


class TestEqualStampTieBreak:
    """DESIGN.md deviation 3: equal-stamp proposals resolve by proposer id."""

    def test_beats_relation(self):
        beats = DgmcSwitch._beats
        # strictly newer event set always wins, regardless of proposer
        assert beats(S(2, 1), 9, S(1, 1), 0)
        assert not beats(S(1, 1), 0, S(2, 1), 9)
        # equal stamps: lower proposer wins
        assert beats(S(1, 1), 2, S(1, 1), 5)
        assert not beats(S(1, 1), 5, S(1, 1), 2)
        assert not beats(S(1, 1), 5, S(1, 1), 5)
        # incomparable stamps (a resync meeting two partitions) beat neither way
        assert not beats(S(2, 0), 0, S(0, 1), 9)
        assert not beats(S(0, 1), 0, S(2, 0), 9)

    def test_history_dependent_burst_agrees(self):
        """Historical failure: Experiment-1 style burst, seed 1996, n=20,
        graph 1 -- two switches proposed different trees (incremental
        algorithm, different histories) under the same timestamp, and
        last-arrival acceptance split the network."""
        import random

        rng = random.Random(41)
        net = waxman_network(20, rng)
        dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=1.0, per_hop_delay=0.05))
        dgmc.register_symmetric(1)  # default: history-dependent incremental
        for i, sw in enumerate(rng.sample(range(20), 6)):
            dgmc.inject(JoinEvent(sw, 1), at=50.0 * (i + 1))
        dgmc.run()
        # two simultaneous events from opposite corners of the network
        dgmc.inject(JoinEvent(0, 1), at=1000.0)
        dgmc.inject(JoinEvent(19, 1), at=1000.0)
        dgmc.run()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        # every switch holds the same proposer for the same stamp
        proposers = {
            s.current_proposer for s in dgmc.states_for(1).values()
        }
        assert len(proposers) == 1


class TestTombstoneFix:
    """DESIGN.md deviation 4: destruction must not restart vector clocks.

    Historical failure (hypothesis workload (5, 0, 4, 1.0, 72)): a leave
    emptied the connection, some switches destroyed state while a re-join
    raced in, and the rebuilt zero clocks made every later LSA look stale
    to switches that kept memory -- permanent C disagreement.
    """

    def test_destroy_rejoin_race_converges(self):
        import random

        rng = random.Random(0)
        net = waxman_network(5, rng)
        dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
        dgmc.register_symmetric(1)
        # the historical event sequence: join, leave (empties), re-join
        # spaced about one expovariate gap apart so destruction and the
        # re-join LSA race across the network
        dgmc.inject(JoinEvent(4, 1), at=1.0)
        dgmc.inject(LeaveEvent(4, 1), at=1.8)
        dgmc.inject(JoinEvent(0, 1), at=2.1)
        dgmc.inject(JoinEvent(3, 1), at=2.2)
        dgmc.run()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        state = dgmc.states_for(1)[0]
        assert state.member_set == frozenset({0, 3})
        state.installed.shared_tree.validate({0, 3})

    def test_tombstone_preserves_counts(self):
        dgmc = DgmcNetwork(
            ring_network(4), ProtocolConfig(compute_time=0.5, per_hop_delay=0.05)
        )
        dgmc.register_symmetric(1)
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(LeaveEvent(0, 1), at=50.0)  # destroys everywhere
        dgmc.run()
        assert not dgmc.states_for(1)
        # recreate: the new state resumes from the tombstone, not zero
        dgmc.inject(JoinEvent(0, 1), at=100.0)
        dgmc.run()
        state = dgmc.states_for(1)[2]
        assert state.received[0] == 3  # join + leave + join, never reset
        ok, detail = dgmc.agreement(1)
        assert ok, detail


class TestQueuedLsaIsNeverOrphaned:
    """Deletion waits for an empty inbox, and the inbox holds *every*
    undelivered LSA (DESIGN.md §4b, state lifecycle).

    Historical failure: the LSA that woke a parked ReceiveLSA() daemon rode
    inside the scheduled wake, where the emptiness check could not see it.
    Here switch 0's leave computation completes at t=2.125, the instant
    switch 1's join LSA reaches it: EventHandler() found "no members, empty
    mailbox" and deleted the state the wake was about to update, so switch
    0 rejoined the vector protocol from a tombstone that never heard of
    switch 1 -- ``[1, 2] != [2]``, permanently.
    """

    def test_leave_completing_as_a_join_lsa_arrives_keeps_the_join(self):
        dgmc = DgmcNetwork(
            ring_network(3), ProtocolConfig(compute_time=0.125, per_hop_delay=0.25)
        )
        dgmc.register_symmetric(1)
        dgmc.inject(JoinEvent(0, 1), at=0.0)
        dgmc.inject(JoinEvent(1, 1), at=1.75)
        dgmc.inject(LeaveEvent(0, 1), at=2.0)
        dgmc.inject(JoinEvent(2, 1), at=5.0)
        dgmc.run()
        assert dgmc.agreement(1) == (True, "connection 1: 3 switches agree")
        assert sorted(dgmc.switches[0].states[1].members) == [1, 2]
