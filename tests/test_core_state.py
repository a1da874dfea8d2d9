"""Tests for per-(switch, connection) D-GMC state."""

from __future__ import annotations

import pytest

from repro.core.mc import ConnectionSpec, ConnectionType, Role
from repro.core.state import McState
from repro.core.timestamp import Stamp
from repro.trees.algorithms import RECEIVER, SENDER
from repro.trees.base import McTopology, MulticastTree
from tests.stamps import S


def make_state(ctype=ConnectionType.SYMMETRIC, n=4):
    return McState(ConnectionSpec(1, ctype), n)


class TestMembership:
    def test_join_with_default_role_symmetric(self):
        st = make_state()
        st.apply_join(2, None)
        assert st.members[2] == frozenset({SENDER, RECEIVER})

    def test_join_with_default_role_receiver_only(self):
        st = make_state(ConnectionType.RECEIVER_ONLY)
        st.apply_join(2, None)
        assert st.members[2] == frozenset({RECEIVER})

    def test_join_with_explicit_role(self):
        st = make_state(ConnectionType.ASYMMETRIC)
        st.apply_join(1, Role.SENDER)
        assert st.members[1] == frozenset({SENDER})

    def test_join_accumulates_roles(self):
        st = make_state(ConnectionType.ASYMMETRIC)
        st.apply_join(1, Role.SENDER)
        st.apply_join(1, Role.RECEIVER)
        assert st.members[1] == frozenset({SENDER, RECEIVER})

    def test_leave_removes_entirely(self):
        st = make_state()
        st.apply_join(1, None)
        st.apply_leave(1)
        assert 1 not in st.members
        assert st.empty

    def test_leave_is_idempotent(self):
        st = make_state()
        st.apply_leave(3)  # no raise
        assert st.empty

    def test_member_set(self):
        st = make_state()
        st.apply_join(1, None)
        st.apply_join(3, None)
        assert st.member_set == frozenset({1, 3})


class TestPredicates:
    def test_no_outstanding_initially(self):
        st = make_state()
        assert st.no_outstanding_lsas()

    def test_outstanding_after_expected_merge(self):
        st = make_state()
        st.expected.merge(S(0, 1, 0, 0))
        assert not st.no_outstanding_lsas()
        st.received.increment(1)
        assert st.no_outstanding_lsas()

    def test_covers_new_events(self):
        st = make_state()
        assert not st.covers_new_events()  # R == C == 0
        st.received.increment(0)
        assert st.covers_new_events()


class TestInstall:
    def test_install_sets_c_and_proposer(self):
        st = make_state()
        topo = McTopology.shared(MulticastTree.build([(0, 1)], [0, 1]))
        st.install(topo, S(1, 0, 0, 0), now=5.0, proposer=2)
        assert st.installed == topo
        assert st.current_stamp == S(1, 0, 0, 0)
        assert st.current_proposer == 2
        assert st.last_install_time == 5.0
        assert st.proposals_accepted == 1

    def test_initial_proposer_is_sentinel(self):
        st = make_state(n=4)
        assert st.current_proposer == 4  # loses every tie


class TestCanonical:
    def test_equal_for_states_built_in_different_orders(self):
        """The fingerprint sees the vectors, not how they were reached:
        increments vs. merges vs. writes, in any origin order, with zeros
        written and unwritten on the way."""
        topo = McTopology.shared(MulticastTree.build([(0, 1), (1, 3)], [0, 3]))

        a = make_state()
        for origin in (0, 3, 3, 1):
            a.received.increment(origin)
            a.expected.increment(origin)
        a.member_stamp[0] = 1
        a.member_stamp[3] = 2
        a.apply_join(0, None)
        a.apply_join(3, None)
        a.install(topo, S(1, 1, 0, 2), now=1.0, proposer=0)

        b = make_state()
        b.apply_join(3, None)
        b.apply_join(0, None)
        b.expected.merge(S(0, 1, 0, 2))
        b.expected.merge(S(1, 0, 0, 1))
        b.received[2] = 5
        b.received[2] = 0  # an origin touched, then back to an implicit zero
        b.received.merge(S(1, 1, 0, 2))
        b.member_stamp.merge(S(0, 0, 0, 2))
        b.member_stamp.increment(0)
        reordered = McTopology.shared(MulticastTree.build([(3, 1), (1, 0)], [3, 0]))
        b.install(reordered, Stamp({3: 2, 1: 1, 0: 1}), now=9.0, proposer=0)

        assert a.canonical() == b.canonical()
        assert hash(a.canonical()) == hash(b.canonical())
        b.received.increment(2)
        assert a.canonical() != b.canonical()

    def test_tombstone_resume_copies_the_vectors(self):
        """A recreated state must not alias the tombstone's stamps."""
        first = make_state()
        first.received.increment(1)
        tomb = (
            first.received.snapshot(), first.expected.snapshot(),
            first.current_stamp, first.member_stamp.snapshot(),
        )
        resumed = McState(first.spec, first.n, resume_from=tomb)
        resumed.received.increment(1)
        assert tomb[0] == S(0, 1) and resumed.received == S(0, 2)
