"""Multipoint connection model: the three MC types and membership roles.

Section 1 distinguishes **symmetric** MCs (every member sends and
receives; teleconferencing), **receiver-only** MCs (members are receivers;
senders contact any on-tree node -- CBT restricts the contact to one core),
and **asymmetric** MCs (members are senders and/or receivers; video
broadcast, remote teaching; MOSPF/ATM-UNI style).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet

from repro.trees.algorithms import RECEIVER, SENDER, make_algorithm


class ConnectionType(enum.Enum):
    """The three MC types of Section 1."""

    SYMMETRIC = "symmetric"
    RECEIVER_ONLY = "receiver-only"
    ASYMMETRIC = "asymmetric"


class Role(enum.Enum):
    """Membership roles within an MC."""

    SENDER = SENDER
    RECEIVER = RECEIVER
    BOTH = "both"

    def as_role_set(self) -> FrozenSet[str]:
        """Expand to the underlying role-string set used by tree algorithms."""
        if self is Role.BOTH:
            return frozenset((SENDER, RECEIVER))
        return frozenset((self.value,))


def default_role(ctype: ConnectionType) -> Role:
    """The role a plain join implies for each connection type.

    Symmetric members both send and receive; receiver-only members receive.
    Asymmetric joins must state a role explicitly (there is no sensible
    default), so requesting one raises.
    """
    if ctype is ConnectionType.SYMMETRIC:
        return Role.BOTH
    if ctype is ConnectionType.RECEIVER_ONLY:
        return Role.RECEIVER
    raise ValueError("asymmetric MC joins must carry an explicit role")


@dataclass(frozen=True)
class ConnectionSpec:
    """Static description of one MC: its identifier and type.

    The type alone picks the topology computation
    (:func:`repro.trees.algorithms.make_algorithm`): an incremental shared
    Steiner tree, or per-sender source-rooted trees for asymmetric MCs.
    """

    connection_id: int
    ctype: ConnectionType

    def make_algorithm(self):
        """This connection's topology algorithm (one instance per type)."""
        return make_algorithm(self.ctype.value)

    def __post_init__(self) -> None:
        if not 0 <= self.connection_id < 2**32:  # the wire's and the install log's u32
            raise ValueError("connection_id must be in [0, 2**32)")


class ConnectionRegistrar:
    """The provisioning API of a deployment, over ``connection_registry``.

    Both execution backends (:class:`~repro.core.protocol.DgmcNetwork` and
    the live ``LiveFabric``) declare an MC -- its id and type --
    before use, like the paper's pre-registered MC identifiers.
    """

    connection_registry: Dict[int, ConnectionSpec]

    def register_connection(self, spec: ConnectionSpec) -> ConnectionSpec:
        if spec.connection_id in self.connection_registry:
            raise ValueError(f"connection {spec.connection_id} already registered")
        self.connection_registry[spec.connection_id] = spec
        return spec

    def register_symmetric(self, connection_id: int) -> ConnectionSpec:
        return self.register_connection(
            ConnectionSpec(connection_id, ConnectionType.SYMMETRIC)
        )

    def register_receiver_only(self, connection_id: int) -> ConnectionSpec:
        return self.register_connection(
            ConnectionSpec(connection_id, ConnectionType.RECEIVER_ONLY)
        )

    def register_asymmetric(self, connection_id: int) -> ConnectionSpec:
        return self.register_connection(
            ConnectionSpec(connection_id, ConnectionType.ASYMMETRIC)
        )
