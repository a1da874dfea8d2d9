"""Multipoint connection model: the three MC types and membership roles.

Section 1 distinguishes **symmetric** MCs (every member sends and
receives; teleconferencing), **receiver-only** MCs (members are receivers;
senders contact any on-tree node -- CBT restricts the contact to one core),
and **asymmetric** MCs (members are senders and/or receivers; video
broadcast, remote teaching; MOSPF/ATM-UNI style).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from repro.trees.algorithms import RECEIVER, SENDER


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
    """Static description of one MC: its identifier, type, and algorithm.

    ``algorithm`` / ``algorithm_options`` select the topology computation
    (see :func:`repro.trees.algorithms.make_algorithm`); ``None`` picks the
    default for the type (greedy-incremental shared tree, or per-source
    SPTs for asymmetric MCs).
    """

    connection_id: int
    ctype: ConnectionType
    algorithm: Optional[str] = None
    algorithm_options: tuple = field(default_factory=tuple)

    def make_algorithm(self):
        """Instantiate this connection's topology algorithm."""
        from repro.trees.algorithms import make_algorithm

        options = dict(self.algorithm_options)
        if self.ctype is ConnectionType.ASYMMETRIC:
            return make_algorithm("asymmetric")
        if self.algorithm is not None:
            options["method"] = self.algorithm
        return make_algorithm(self.ctype.value, **options)

    def __post_init__(self) -> None:
        if self.connection_id < 0:
            raise ValueError("connection_id must be non-negative")


class ConnectionRegistrar:
    """The provisioning API of a deployment, over ``connection_registry``.

    Both execution backends (:class:`~repro.core.protocol.DgmcNetwork` and
    the live ``LiveFabric``) declare an MC -- its id, type and algorithm --
    before use, like the paper's pre-registered MC identifiers.
    """

    connection_registry: Dict[int, ConnectionSpec]

    def register_connection(self, spec: ConnectionSpec) -> ConnectionSpec:
        if spec.connection_id in self.connection_registry:
            raise ValueError(f"connection {spec.connection_id} already registered")
        self.connection_registry[spec.connection_id] = spec
        return spec

    def register_symmetric(self, connection_id: int, **kw) -> ConnectionSpec:
        return self.register_connection(
            ConnectionSpec(connection_id, ConnectionType.SYMMETRIC, **kw)
        )

    def register_receiver_only(self, connection_id: int, **kw) -> ConnectionSpec:
        return self.register_connection(
            ConnectionSpec(connection_id, ConnectionType.RECEIVER_ONLY, **kw)
        )

    def register_asymmetric(self, connection_id: int) -> ConnectionSpec:
        return self.register_connection(
            ConnectionSpec(connection_id, ConnectionType.ASYMMETRIC)
        )
