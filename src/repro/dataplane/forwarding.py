"""Hop-by-hop multicast forwarding over installed MC topologies.

Every forwarding decision consults the *local* switch's state -- its
installed topology, its member list, its unicast routing table -- exactly
as the protocol installs them ("Update routing entries for incident links
in m").  During reconvergence neighboring switches can hold different
topologies; packets then see drops or duplicates, which the
:class:`DeliveryReport` quantifies (the data-plane cost of control-plane
churn).

Loop safety: per-packet duplicate suppression at each switch plus a hop
TTL bound every packet's work even under pathological disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.core.mc import ConnectionType
from repro.core.protocol import DgmcNetwork
from repro.dataplane.packet import DeliveryRecord, McPacket
from repro.frr import detour_delay, detour_is_live
from repro.lsr import spf
from repro.trees.algorithms import RECEIVER
from repro.trees.base import SHARED


@dataclass
class DeliveryReport:
    """Aggregate statistics over a set of delivery records."""

    records: List[DeliveryRecord] = field(default_factory=list)

    def add(self, record: DeliveryRecord) -> None:
        self.records.append(record)

    @property
    def packets(self) -> int:
        return len(self.records)

    @property
    def complete_deliveries(self) -> int:
        return sum(1 for r in self.records if r.complete and not r.undeliverable)

    @property
    def mean_delivery_ratio(self) -> float:
        if not self.records:
            return 1.0
        return sum(r.delivery_ratio for r in self.records) / len(self.records)

    @property
    def total_hops(self) -> int:
        return sum(r.hops for r in self.records)

    @property
    def total_duplicates(self) -> int:
        return sum(r.duplicates for r in self.records)

    @property
    def total_ttl_drops(self) -> int:
        return sum(r.ttl_drops for r in self.records)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DeliveryReport(packets={self.packets}, "
            f"complete={self.complete_deliveries}, "
            f"ratio={self.mean_delivery_ratio:.3f})"
        )


class ForwardingEngine:
    """Forwards multicast packets through a running D-GMC deployment."""

    def __init__(
        self,
        dgmc: DgmcNetwork,
        hop_delay: Optional[float] = None,
        ttl: Optional[int] = None,
    ) -> None:
        self.dgmc = dgmc
        #: Data-packet per-hop delay; defaults to the physical link delay.
        self.hop_delay = hop_delay
        #: Hop limit per packet; defaults to 4n (generous for any tree walk,
        #: but bounds unicast ping-pong under inconsistent routing tables).
        self.ttl = ttl
        self.report = DeliveryReport()
        self._seen: Dict[int, Set[int]] = {}

    # -- public API -----------------------------------------------------------

    def send(self, packet: McPacket, at: float) -> DeliveryRecord:
        """Schedule a packet injection; returns its (live) delivery record."""
        record = DeliveryRecord(packet)
        self.report.add(record)
        self.dgmc.sim.schedule_at(at, lambda: self._inject(packet, record))
        return record

    # -- injection ---------------------------------------------------------------

    def _inject(self, packet: McPacket, record: DeliveryRecord) -> None:
        packet.sent_at = self.dgmc.sim.now
        source_switch = self.dgmc.switches.get(packet.source)
        state = source_switch.states.get(packet.connection_id) if source_switch else None
        if state is None or state.installed is None:
            record.undeliverable = True
            return
        record.intended = self._intended_receivers(state)
        self._seen[packet.packet_id] = set()
        ttl = self.ttl if self.ttl is not None else 4 * self.dgmc.net.n
        if self._on_tree(packet.source, packet):
            self._tree_arrive(packet.source, None, packet, record, ttl)
        else:
            # Receiver-only two-stage delivery: unicast toward the nearest
            # member (the contact node), then spread over the tree.
            contact = self._nearest_member(packet.source, state)
            if contact is None:
                record.undeliverable = True
                return
            self._unicast_arrive(packet.source, contact, packet, record, ttl)

    def _intended_receivers(self, state) -> frozenset:
        if state.spec.ctype is ConnectionType.ASYMMETRIC:
            return frozenset(
                x for x, roles in state.members.items() if RECEIVER in roles
            )
        return frozenset(state.members)

    def _nearest_member(self, source: int, state) -> Optional[int]:
        members = state.member_set
        if not members:
            return None
        dist, _ = spf.dijkstra(self.dgmc.routers[source].network_image(), source)
        reachable = [(dist[m], m) for m in sorted(members) if m in dist]
        return min(reachable)[1] if reachable else None

    # -- per-hop mechanics ----------------------------------------------------------

    def _local_tree_edges(self, switch: int, packet: McPacket) -> List[tuple]:
        """Tree edges incident to ``switch`` in *its own* installed view."""
        state = self.dgmc.switches[switch].states.get(packet.connection_id)
        if state is None or state.installed is None:
            return []
        asymmetric = state.spec.ctype is ConnectionType.ASYMMETRIC
        tree = state.installed.tree_map().get(
            packet.source if asymmetric else SHARED
        )
        if tree is None:
            return []
        return [e for e in sorted(tree.edges) if switch in e]

    def _on_tree(self, switch: int, packet: McPacket) -> bool:
        state = self.dgmc.switches[switch].states.get(packet.connection_id)
        if state is None:
            return False
        if switch in state.members:
            return True
        return bool(self._local_tree_edges(switch, packet))

    def _hop_cost(self, u: int, v: int) -> float:
        if self.hop_delay is not None:
            return self.hop_delay
        return self.dgmc.net.link(u, v).delay

    def _deliver_local(self, switch: int, packet: McPacket, record: DeliveryRecord) -> None:
        state = self.dgmc.switches[switch].states.get(packet.connection_id)
        if state is None:
            return
        roles = state.members.get(switch)
        if roles is None:
            return
        if state.spec.ctype is ConnectionType.ASYMMETRIC and RECEIVER not in roles:
            return
        record.delivered.setdefault(switch, self.dgmc.sim.now)

    def _tree_arrive(
        self,
        switch: int,
        came_from: Optional[int],
        packet: McPacket,
        record: DeliveryRecord,
        ttl: int,
    ) -> None:
        seen = self._seen[packet.packet_id]
        if switch in seen:
            record.duplicates += 1
            return
        seen.add(switch)
        self._deliver_local(switch, packet, record)
        targets = self._forward_targets(switch, came_from, packet)
        detours = self._detour_targets(switch, came_from, packet)
        if ttl <= 0:
            if targets or detours:
                record.ttl_drops += 1  # the hop limit suppressed real fan-out
            return
        for neighbor in targets:
            record.hops += 1
            self.dgmc.sim.schedule(
                self._hop_cost(switch, neighbor),
                lambda n=neighbor, s=switch: self._tree_arrive(
                    n, s, packet, record, ttl - 1
                ),
            )
        for fragment in detours:
            # Tunnel semantics: the packet rides the whole precomputed
            # detour as one scheduled resumption at the far endpoint of
            # the failed edge -- interior detour switches hold no tree
            # state and neither dedup nor deliver.  Delay and hops are
            # the summed per-link costs so timestamps match a
            # hypothetical hop-by-hop ride (and the batched engine's
            # compiled splice) exactly.
            span = fragment.span
            if ttl < span:
                record.ttl_drops += 1
                continue
            far = fragment.edge[0] if fragment.edge[1] == switch else fragment.edge[1]
            record.hops += span
            self.dgmc.sim.schedule(
                detour_delay(fragment, switch, self._hop_cost),
                lambda f=far, s=switch, t=ttl - span: self._tree_arrive(
                    f, s, packet, record, t
                ),
            )

    def _forward_targets(
        self, switch: int, came_from: Optional[int], packet: McPacket
    ) -> List[int]:
        """Live tree neighbors the packet would fan out to from ``switch``."""
        targets: List[int] = []
        for edge in self._local_tree_edges(switch, packet):
            neighbor = edge[0] if edge[1] == switch else edge[1]
            if neighbor == came_from:
                continue
            if not self.dgmc.net.has_link(switch, neighbor):
                continue
            if not self.dgmc.net.link(switch, neighbor).up:
                continue  # data-plane drop on a dead link
            targets.append(neighbor)
        return targets

    def _detour_targets(
        self, switch: int, came_from: Optional[int], packet: McPacket
    ) -> List[Any]:
        """Activated backup fragments covering dead incident tree edges.

        A fragment is ridden only while its own detour links are all up
        (a second failure on the detour is not re-protected: no nested
        FRR, the packet drops exactly as without FRR).
        """
        state = self.dgmc.switches[switch].states.get(packet.connection_id)
        if state is None or not state.active_backup:
            return []
        fragments: List[Any] = []
        for edge in self._local_tree_edges(switch, packet):
            neighbor = edge[0] if edge[1] == switch else edge[1]
            if neighbor == came_from:
                continue
            if self.dgmc.net.has_link(switch, neighbor) and self.dgmc.net.link(
                switch, neighbor
            ).up:
                continue  # primary edge alive: stay on the tree
            key = (switch, neighbor) if switch <= neighbor else (neighbor, switch)
            fragment = state.active_backup.get(key)
            if fragment is not None and detour_is_live(fragment, self.dgmc.net):
                fragments.append(fragment)
        return fragments

    def _unicast_arrive(
        self,
        switch: int,
        contact: int,
        packet: McPacket,
        record: DeliveryRecord,
        ttl: int,
    ) -> None:
        """Stage 1 of receiver-only delivery: ride unicast toward the contact."""
        if self._on_tree(switch, packet):
            self._tree_arrive(switch, None, packet, record, ttl)
            return
        next_hop = self.dgmc.routers[switch].next_hop(contact)
        if next_hop is None or not self.dgmc.net.link(switch, next_hop).up:
            return  # unroutable right now: dropped
        if ttl <= 0:
            record.ttl_drops += 1  # the hop limit suppressed a live forward
            return
        record.hops += 1
        self.dgmc.sim.schedule(
            self._hop_cost(switch, next_hop),
            lambda n=next_hop: self._unicast_arrive(
                n, contact, packet, record, ttl - 1
            ),
        )
