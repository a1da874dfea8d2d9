"""The two-level hierarchical D-GMC deployment.

One shared simulator drives one D-GMC instance per area plus one backbone
instance among border switches.  Membership events flood only within
their area; the area leader (smallest border switch) joins the area MC as
a proxy member and the backbone MC as the area's representative while the
area has real members.  See the package docstring for the design
rationale -- the paper names this extension but does not specify it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.core.events import JoinEvent, LeaveEvent, NodeEvent
from repro.core.protocol import DgmcNetwork, ProtocolConfig
from repro.hier.partition import AreaPlan
from repro.sim.kernel import Simulator
from repro.trees.base import SHARED


@dataclass
class _HierConnection:
    """Orchestration state for one hierarchical MC."""

    connection_id: int
    #: area id -> set of global switch ids with real members.
    members_by_area: Dict[int, Set[int]] = field(default_factory=dict)
    #: areas whose leader currently participates (proxy + backbone joined).
    active_areas: Set[int] = field(default_factory=set)
    #: area id -> the *acting* leader (may differ from the plan's default
    #: after a leader failure; see group-leader election below).
    acting_leader: Dict[int, int] = field(default_factory=dict)


class HierDgmcNetwork:
    """Hierarchical (two-level) D-GMC over an :class:`AreaPlan`.

    Only symmetric MCs are supported at the hierarchy level (the area and
    backbone instances run the ordinary protocol, which is generic; the
    leader-proxy stitching below assumes every member both sends and
    receives, the common conferencing case).
    """

    def __init__(
        self,
        plan: AreaPlan,
        config: Optional[ProtocolConfig] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        self.plan = plan
        self.config = config or ProtocolConfig()
        self.sim = sim or Simulator()
        self.area_protocols: Dict[int, DgmcNetwork] = {
            a: DgmcNetwork(view.net, self.config, sim=self.sim)
            for a, view in plan.areas.items()
        }
        self.backbone_protocol = DgmcNetwork(plan.backbone, self.config, sim=self.sim)
        self.connections: Dict[int, _HierConnection] = {}
        #: Border switches that have failed (group-leader election input).
        self.dead_borders: Set[int] = set()

    # -- registration ------------------------------------------------------------

    def register_symmetric(self, connection_id: int, **kw) -> None:
        if connection_id in self.connections:
            raise ValueError(f"connection {connection_id} already registered")
        for proto in self.area_protocols.values():
            proto.register_symmetric(connection_id, **kw)
        self.backbone_protocol.register_symmetric(connection_id, **kw)
        self.connections[connection_id] = _HierConnection(connection_id)

    # -- membership orchestration ----------------------------------------------------

    def inject_join(self, switch: int, connection_id: int, at: float) -> None:
        self.sim.schedule_at(at, lambda: self._fire_join(switch, connection_id))

    def inject_leave(self, switch: int, connection_id: int, at: float) -> None:
        self.sim.schedule_at(at, lambda: self._fire_leave(switch, connection_id))

    def _fire_join(self, switch: int, connection_id: int) -> None:
        conn = self.connections[connection_id]
        area_id = self.plan.area_of(switch)
        view = self.plan.area(area_id)
        proto = self.area_protocols[area_id]
        members = conn.members_by_area.setdefault(area_id, set())
        if switch in members:
            return  # idempotent join
        members.add(switch)
        if switch == conn.acting_leader.get(area_id):
            # The leader is already an area-MC member as the proxy; only
            # its real-membership flag changes.
            pass
        else:
            proto.fire_event(JoinEvent(view.to_local[switch], connection_id))
        self._reconcile_leader(conn, area_id)

    def _fire_leave(self, switch: int, connection_id: int) -> None:
        conn = self.connections[connection_id]
        area_id = self.plan.area_of(switch)
        view = self.plan.area(area_id)
        proto = self.area_protocols[area_id]
        members = conn.members_by_area.setdefault(area_id, set())
        if switch not in members:
            return
        members.remove(switch)
        if switch == conn.acting_leader.get(area_id):
            # The leader's area-MC membership is owned by the proxy logic;
            # _reconcile_leader removes it when the area truly empties.
            pass
        else:
            proto.fire_event(LeaveEvent(view.to_local[switch], connection_id))
        self._reconcile_leader(conn, area_id)

    def _elect_leader(self, area_id: int) -> Optional[int]:
        """Group-leader election under link-state routing.

        Every border switch learns the live border set from the (area)
        link-state image, so all agree on the deterministic choice: the
        smallest *live* border switch.  Returns None when the whole border
        set is dead (the area is unrepresentable on the backbone).
        """
        live = [
            b for b in self.plan.area(area_id).borders
            if b not in self.dead_borders
        ]
        return live[0] if live else None

    def _reconcile_leader(self, conn: _HierConnection, area_id: int) -> None:
        """Keep the area leader's proxy/backbone membership consistent.

        The leader participates iff the area has at least one *real*
        member that is not the leader itself (a lone leader-member still
        needs backbone presence when other areas are active -- covered
        because membership is counted before proxying).
        """
        view = self.plan.area(area_id)
        proto = self.area_protocols[area_id]
        has_members = bool(conn.members_by_area.get(area_id))
        active = area_id in conn.active_areas
        if has_members and not active:
            leader = self._elect_leader(area_id)
            if leader is None:
                return  # no live border: the area cannot join the backbone
            conn.active_areas.add(area_id)
            conn.acting_leader[area_id] = leader
            if leader not in conn.members_by_area[area_id]:
                # proxy join inside the area (leader grafts itself)
                proto.fire_event(
                    JoinEvent(view.to_local[leader], conn.connection_id)
                )
            self.backbone_protocol.fire_event(
                JoinEvent(
                    self.plan.backbone_to_local[leader], conn.connection_id
                )
            )
        elif not has_members and active:
            leader = conn.acting_leader.get(area_id)
            conn.active_areas.discard(area_id)
            conn.acting_leader.pop(area_id, None)
            if leader is None or leader in self.dead_borders:
                return  # nothing to withdraw (dead leaders are ghosts)
            proto.fire_event(
                LeaveEvent(view.to_local[leader], conn.connection_id)
            )
            self.backbone_protocol.fire_event(
                LeaveEvent(
                    self.plan.backbone_to_local[leader], conn.connection_id
                )
            )

    # -- border failure and leader failover -------------------------------------

    def inject_border_failure(self, switch: int, at: float) -> None:
        """Schedule the failure of a border switch (with leader failover)."""
        area_id = self.plan.area_of(switch)
        if switch not in self.plan.area(area_id).borders:
            raise ValueError(f"switch {switch} is not a border switch")
        self.sim.schedule_at(at, lambda: self._fire_border_failure(switch))

    def _fire_border_failure(self, switch: int) -> None:
        if switch in self.dead_borders:
            return
        self.dead_borders.add(switch)
        area_id = self.plan.area_of(switch)
        view = self.plan.area(area_id)
        # The nodal event fires at both levels the switch participates in.
        self.area_protocols[area_id].fire_event(
            NodeEvent(view.to_local[switch], up=False)
        )
        self.backbone_protocol.fire_event(
            NodeEvent(self.plan.backbone_to_local[switch], up=False)
        )
        # Failover: every connection whose acting leader died re-elects.
        for conn in self.connections.values():
            if conn.acting_leader.get(area_id) != switch:
                continue
            # Drop dead real-membership (its hosts are unreachable anyway).
            conn.members_by_area.get(area_id, set()).discard(switch)
            new_leader = self._elect_leader(area_id)
            if new_leader is None or not conn.members_by_area.get(area_id):
                conn.active_areas.discard(area_id)
                conn.acting_leader.pop(area_id, None)
                continue
            conn.acting_leader[area_id] = new_leader
            if new_leader not in conn.members_by_area[area_id]:
                self.area_protocols[area_id].fire_event(
                    JoinEvent(view.to_local[new_leader], conn.connection_id)
                )
            self.backbone_protocol.fire_event(
                JoinEvent(
                    self.plan.backbone_to_local[new_leader], conn.connection_id
                )
            )

    # -- running --------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    # -- inspection --------------------------------------------------------------------

    def agreement(self, connection_id: int) -> Tuple[bool, str]:
        """Agreement within every area and on the backbone."""
        for a, proto in sorted(self.area_protocols.items()):
            ok, detail = proto.agreement(connection_id)
            if not ok:
                return False, f"area {a}: {detail}"
        ok, detail = self.backbone_protocol.agreement(connection_id)
        if not ok:
            return False, f"backbone: {detail}"
        return True, f"{len(self.area_protocols)} areas + backbone agree"

    def global_edges(self, connection_id: int) -> Set[Tuple[int, int]]:
        """The MC's physical edge set: area trees + expanded backbone tree."""
        edges: Set[Tuple[int, int]] = set()
        for a, proto in self.area_protocols.items():
            view = self.plan.area(a)
            states = proto.states_for(connection_id)
            if not states:
                continue
            state = states[min(states)]
            if state.installed is None:
                continue
            tree = state.installed.tree_map().get(SHARED)
            if tree is None:
                continue
            for u, v in tree.edges:
                gu, gv = view.to_global[u], view.to_global[v]
                edges.add((min(gu, gv), max(gu, gv)))
        bb_states = self.backbone_protocol.states_for(connection_id)
        if bb_states:
            state = bb_states[min(bb_states)]
            if state.installed is not None:
                tree = state.installed.tree_map().get(SHARED)
                if tree is not None:
                    for u, v in tree.edges:
                        edges.update(self.plan.expand_backbone_edge(u, v))
        return edges

    def global_members(self, connection_id: int) -> Set[int]:
        conn = self.connections[connection_id]
        return set().union(*conn.members_by_area.values()) if conn.members_by_area else set()

    def spans_members(self, connection_id: int) -> bool:
        """Do the stitched edges connect every member (via leaders)?"""
        members = self.global_members(connection_id)
        if len(members) <= 1:
            return True
        adj: Dict[int, Set[int]] = {}
        for u, v in self.global_edges(connection_id):
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        start = min(members)
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nbr in adj.get(node, ()):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return members <= seen

    # -- cost accounting ---------------------------------------------------------------

    def total_computations(self) -> int:
        return self.backbone_protocol.total_computations() + sum(
            p.total_computations() for p in self.area_protocols.values()
        )

    def total_lsa_deliveries(self) -> int:
        """Individual LSA deliveries -- the hierarchy's scoping win."""
        return self.backbone_protocol.fabric.delivery_count + sum(
            p.fabric.delivery_count for p in self.area_protocols.values()
        )

    def total_floodings(self) -> int:
        return self.backbone_protocol.fabric.total_floods + sum(
            p.fabric.total_floods for p in self.area_protocols.values()
        )
