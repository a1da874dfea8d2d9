"""Tests for connection types, roles, and specs."""

from __future__ import annotations

import pytest

from repro.core.mc import ConnectionSpec, ConnectionType, Role, default_role
from repro.core.state import McState
from repro.trees.algorithms import (
    RECEIVER,
    SENDER,
    SharedTreeAlgorithm,
    SourceTreesAlgorithm,
)


class TestRole:
    def test_both_expands(self):
        assert Role.BOTH.as_role_set() == frozenset({SENDER, RECEIVER})

    def test_single_roles(self):
        assert Role.SENDER.as_role_set() == frozenset({SENDER})
        assert Role.RECEIVER.as_role_set() == frozenset({RECEIVER})


class TestDefaultRole:
    def test_symmetric_is_both(self):
        assert default_role(ConnectionType.SYMMETRIC) is Role.BOTH

    def test_receiver_only_is_receiver(self):
        assert default_role(ConnectionType.RECEIVER_ONLY) is Role.RECEIVER

    def test_asymmetric_has_no_default(self):
        with pytest.raises(ValueError):
            default_role(ConnectionType.ASYMMETRIC)


class TestConnectionSpec:
    def test_default_algorithms(self):
        sym = ConnectionSpec(1, ConnectionType.SYMMETRIC)
        assert isinstance(sym.make_algorithm(), SharedTreeAlgorithm)
        asym = ConnectionSpec(2, ConnectionType.ASYMMETRIC)
        assert isinstance(asym.make_algorithm(), SourceTreesAlgorithm)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            ConnectionSpec(-1, ConnectionType.SYMMETRIC)

    def test_id_must_fit_the_wire(self):
        ConnectionSpec(2**32 - 1, ConnectionType.SYMMETRIC)
        with pytest.raises(ValueError):
            ConnectionSpec(2**32, ConnectionType.SYMMETRIC)

    def test_every_state_of_a_type_holds_the_same_algorithm(self):
        """The computations are stateless, so no switch or connection
        allocates its own: one object per MC type."""
        for ctype in ConnectionType:
            states = [
                McState(ConnectionSpec(cid, ctype), n=4)
                for cid in (1, 2)
                for _ in range(3)
            ]
            assert len({id(state.algorithm) for state in states}) == 1
