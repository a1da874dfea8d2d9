"""Tests for the MC LSA format and its validation rules."""

from __future__ import annotations

import pytest

from repro.core.lsa import McEvent, McLsa
from repro.core.mc import Role
from repro.trees.base import McTopology, MulticastTree
from tests.stamps import S


def topo():
    return McTopology.shared(MulticastTree.build([(0, 1)], [0, 1]))


class TestValidation:
    def test_join_requires_role(self):
        with pytest.raises(ValueError, match="role"):
            McLsa(0, McEvent.JOIN, 1, None, S(1, 0), role=None)

    def test_join_with_role_ok(self):
        lsa = McLsa(0, McEvent.JOIN, 1, None, S(1, 0), role=Role.BOTH)
        assert lsa.is_event_lsa
        assert not lsa.is_triggered

    def test_non_join_rejects_role(self):
        with pytest.raises(ValueError, match="role"):
            McLsa(0, McEvent.LEAVE, 1, None, S(1, 0), role=Role.BOTH)

    def test_triggered_requires_proposal(self):
        with pytest.raises(ValueError, match="proposal"):
            McLsa(0, McEvent.NONE, 1, None, S(1, 0))

    def test_triggered_with_proposal_ok(self):
        lsa = McLsa(0, McEvent.NONE, 1, topo(), S(1, 0))
        assert lsa.is_triggered
        assert not lsa.is_event_lsa


class TestFields:
    def test_flag_always_mc(self):
        lsa = McLsa(3, McEvent.LEAVE, 7, None, S(0, 0, 0, 1))
        assert lsa.is_mc is True
        assert lsa.source == 3
        assert lsa.connection_id == 7

    def test_link_event_lsa(self):
        lsa = McLsa(2, McEvent.LINK, 1, topo(), S(0, 0, 1))
        assert lsa.is_event_lsa
        assert lsa.proposal is not None

    def test_frozen(self):
        lsa = McLsa(0, McEvent.LEAVE, 1, None, S(1))
        with pytest.raises(AttributeError):
            lsa.source = 5

    def test_value_equality(self):
        a = McLsa(0, McEvent.LEAVE, 1, None, S(1, 2))
        b = McLsa(0, McEvent.LEAVE, 1, None, S(1, 2))
        assert a == b
