"""The MC LSA: the tuple ``(S, F, V, G, P, T)`` of Section 3.1.

* ``S`` -- source switch address,
* ``F`` -- the MC flag (implicit in the Python type: :class:`McLsa` is
  always an MC LSA; unicast advertisements use
  :class:`repro.lsr.lsa.NonMcLsa`),
* ``V`` -- the event carried: ``join``, ``leave``, ``link``, or ``none``
  (a *triggered* LSA carries a proposal but no event),
* ``G`` -- the connection the LSA is relevant to,
* ``P`` -- a (possibly null) topology proposal: "a complete topological
  description of the MC G",
* ``T`` -- a timestamp (immutable snapshot of the sender's R).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.mc import Role
from repro.core.timestamp import Stamp
from repro.obs.context import TraceContext
from repro.trees.base import McTopology


class McEvent(enum.Enum):
    """The V field of an MC LSA."""

    JOIN = "join"
    LEAVE = "leave"
    LINK = "link"
    NONE = "none"


@dataclass(frozen=True)
class McLsa:
    """One MC link-state advertisement.

    ``role`` qualifies JOIN events (which role the joining switch takes);
    it is ``None`` for other events.  ``proposal`` is ``P`` and
    ``timestamp`` is ``T``.
    """

    source: int
    event: McEvent
    connection_id: int
    proposal: Optional[McTopology]
    timestamp: Stamp
    role: Optional[Role] = None
    #: Causal trace context (observability only -- never protocol input;
    #: excluded from equality so traced and untraced LSAs compare equal).
    ctx: Optional[TraceContext] = field(default=None, compare=False, repr=False)

    @property
    def is_mc(self) -> bool:
        """The F flag: always True for MC LSAs."""
        return True

    @property
    def is_event_lsa(self) -> bool:
        """True when the LSA advertises an event (V != none)."""
        return self.event is not McEvent.NONE

    @property
    def is_triggered(self) -> bool:
        """True for triggered LSAs: a proposal with no event."""
        return self.event is McEvent.NONE

    def __post_init__(self) -> None:
        if self.event is McEvent.JOIN and self.role is None:
            raise ValueError("JOIN LSAs must carry the joining role")
        if self.event is not McEvent.JOIN and self.role is not None:
            raise ValueError("only JOIN LSAs carry a role")
        if self.is_triggered and self.proposal is None:
            raise ValueError("a triggered LSA (V=none) must carry a proposal")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        p = "P" if self.proposal is not None else "-"
        return (
            f"McLsa(S={self.source}, V={self.event.value}, G={self.connection_id}, "
            f"{p}, T={self.timestamp})"
        )
