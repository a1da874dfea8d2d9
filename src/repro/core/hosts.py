"""The host-facing service interface.

"The network usually consists of three major components: hosts, switches,
and communications links.  [...] A switch is said to be a member of a
connection if one or more of its attached hosts are interested in the
connection.  When a host wants to join or leave a connection, it sends
this request to its ingress switch, which takes an appropriate action
according to the MC protocol."  (Section 1)

:class:`HostService` implements exactly that indirection: hosts join and
leave; the service reference-counts interest per (switch, connection) and
injects switch-level D-GMC events only on the 0 -> 1 and 1 -> 0
transitions.  For asymmetric MCs the switch's advertised role is the
union of its hosts' roles; a role-widening host join re-advertises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.core.events import JoinEvent, LeaveEvent
from repro.core.mc import Role, default_role
from repro.core.protocol import DgmcNetwork


@dataclass
class _Interest:
    """Host interest aggregated at one (switch, connection)."""

    hosts: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    def union_roles(self) -> FrozenSet[str]:
        roles: Set[str] = set()
        for r in self.hosts.values():
            roles |= r
        return frozenset(roles)


class HostService:
    """Host join/leave requests routed through ingress switches."""

    def __init__(self, dgmc: DgmcNetwork) -> None:
        self.dgmc = dgmc
        self._interest: Dict[Tuple[int, int], _Interest] = {}
        #: host id -> set of (switch, connection) it participates in.
        self._sessions: Dict[str, Set[Tuple[int, int]]] = {}

    def _resolve_role(self, connection_id: int, role: Optional[Role]) -> Role:
        spec = self.dgmc.connection_registry.get(connection_id)
        if spec is None:
            raise KeyError(f"connection {connection_id} is not registered")
        if role is None:
            return default_role(spec.ctype)
        return role

    def host_join(
        self,
        host_id: str,
        connection_id: int,
        at: float,
        role: Optional[Role] = None,
    ) -> None:
        """Schedule a host's join request (sent to its ingress switch)."""
        host = self.dgmc.net.host(host_id)  # KeyError for unknown hosts
        resolved = self._resolve_role(connection_id, role)
        self.dgmc.sim.schedule_at(
            at,
            lambda: self._fire_host_join(
                host_id, host.ingress, connection_id, resolved
            ),
        )

    def host_leave(self, host_id: str, connection_id: int, at: float) -> None:
        """Schedule a host's leave request."""
        host = self.dgmc.net.host(host_id)
        self.dgmc.sim.schedule_at(
            at,
            lambda: self._fire_host_leave(host_id, host.ingress, connection_id),
        )

    # -- transitions -----------------------------------------------------------

    def _fire_host_join(
        self, host_id: str, switch: int, connection_id: int, role: Role
    ) -> None:
        key = (switch, connection_id)
        interest = self._interest.setdefault(key, _Interest())
        before = interest.union_roles()
        interest.hosts[host_id] = role.as_role_set()
        after = interest.union_roles()
        self._sessions.setdefault(host_id, set()).add(key)
        if not before:
            # 0 -> 1 hosts: the switch joins the MC.
            self.dgmc.fire_event(JoinEvent(switch, connection_id, role=role))
        elif not (after <= before):
            # Role widened (e.g. a sender host joined a receiver switch):
            # re-advertise with the new role so member lists converge.
            self.dgmc.fire_event(
                JoinEvent(switch, connection_id, role=_role_from_set(after - before))
            )

    def _fire_host_leave(self, host_id: str, switch: int, connection_id: int) -> None:
        key = (switch, connection_id)
        interest = self._interest.get(key)
        if interest is None or host_id not in interest.hosts:
            return  # unknown session: ignore (idempotent)
        del interest.hosts[host_id]
        self._sessions.get(host_id, set()).discard(key)
        if not interest.hosts:
            # 1 -> 0 hosts: the switch leaves the MC.
            del self._interest[key]
            self.dgmc.fire_event(LeaveEvent(switch, connection_id))
        # Note: role *narrowing* while hosts remain is not re-advertised --
        # D-GMC leaves remove the member entirely, so shrinking a live
        # switch's role would need a leave+rejoin; the stale wider role is
        # harmless (the switch simply stays on more trees) and disappears
        # with the final host's leave.

    # -- inspection -----------------------------------------------------------------

    def hosts_on(self, switch: int, connection_id: int) -> FrozenSet[str]:
        interest = self._interest.get((switch, connection_id))
        return frozenset(interest.hosts) if interest else frozenset()

    def connections_of(self, host_id: str) -> FrozenSet[int]:
        return frozenset(c for _, c in self._sessions.get(host_id, ()))


def _role_from_set(roles: FrozenSet[str]) -> Role:
    if roles == frozenset({"sender", "receiver"}):
        return Role.BOTH
    if roles == frozenset({"sender"}):
        return Role.SENDER
    if roles == frozenset({"receiver"}):
        return Role.RECEIVER
    raise ValueError(f"unrepresentable role set {set(roles)}")
