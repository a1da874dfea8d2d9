"""Multicast packet and delivery bookkeeping."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

_packet_ids = itertools.count(1)


@dataclass
class McPacket:
    """One multicast packet injected at a source switch."""

    source: int
    connection_id: int
    payload: Any = None
    packet_id: int = field(default_factory=_packet_ids.__next__)
    #: Time the packet was injected (set by the engine).
    sent_at: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"McPacket(#{self.packet_id}, src={self.source}, "
            f"G={self.connection_id})"
        )


@dataclass(slots=True)
class DeliveryRecord:
    """What happened to one packet.

    Slotted: the batched engine builds one record per packet (positionally,
    in field order), so a record carries no per-instance ``__dict__``.
    """

    packet: McPacket
    #: receiver switch -> delivery time (first copy only).
    delivered: Dict[int, float] = field(default_factory=dict)
    #: Member switches the packet was intended for at send time.
    intended: frozenset = frozenset()
    #: Total hop transmissions spent (tree + unicast stages).
    hops: int = 0
    #: Duplicate deliveries suppressed (same switch reached twice).
    duplicates: int = 0
    #: Forwarding steps suppressed because the hop limit ran out (loop
    #: guard for transiently inconsistent trees; see ForwardingEngine.ttl).
    ttl_drops: int = 0
    #: True when the engine found no usable topology at the source.
    undeliverable: bool = False

    @property
    def delivery_ratio(self) -> float:
        """Fraction of intended receivers that got a copy."""
        if not self.intended:
            return 1.0
        return len(self.delivered.keys() & self.intended) / len(self.intended)

    @property
    def complete(self) -> bool:
        return self.delivery_ratio == 1.0

    def latency(self, receiver: int) -> Optional[float]:
        """Send-to-deliver latency at one receiver, or None if missed."""
        t = self.delivered.get(receiver)
        return None if t is None else t - self.packet.sent_at
