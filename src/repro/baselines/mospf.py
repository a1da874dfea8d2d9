"""The MOSPF baseline: data-driven, source-rooted multicast (RFC 1584).

"In MOSPF, the addresses of the hosts listening to a multicast address are
broadcast in group-membership LSAs, and routers maintain complete member
lists for all active multicast addresses.  Upon receiving such a datagram
for a multicast address M, the router consults its local database for the
member list of M and computes a shortest-path tree, rooted at the source of
the datagram [...].  The router then saves this topology information in a
routing cache and forwards the datagram along the appropriate out-going
links.  This forwarding will trigger further topology computations at
other routers."  (Section 2)

The simulation models exactly that: datagrams travel hop-by-hop along the
source-rooted tree; each router with a cold cache entry for (source, group)
pays one topology computation.  Membership LSAs and link changes flush the
affected cache entries, so the next datagram after an event re-triggers a
computation at every on-tree router -- the behavior the paper's comparison
highlights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.lsr.flooding import FloodingFabric
from repro.lsr.router import bring_up_unicast
from repro.obs import tracer as obs_tracer
from repro.obs.attach import attach_network_metrics
from repro.sim.kernel import Hold, Simulator
from repro.topo.graph import Network
from repro.trees.base import MulticastTree
from repro.trees.spt import source_rooted_tree


@dataclass(frozen=True)
class GroupMembershipLsa:
    """Flooded advertisement: ``source`` joins/leaves group ``group_id``."""

    source: int
    group_id: int
    join: bool


@dataclass
class _CacheEntry:
    tree: MulticastTree
    valid: bool = True


class _MospfRouterState:
    """Per-router MOSPF state: member lists and the routing cache."""

    def __init__(self) -> None:
        #: group -> set of member switches.
        self.members: Dict[int, Set[int]] = {}
        #: (source, group) -> cached source-rooted tree.
        self.cache: Dict[Tuple[int, int], _CacheEntry] = {}

    def apply_membership(self, lsa: GroupMembershipLsa) -> None:
        group = self.members.setdefault(lsa.group_id, set())
        if lsa.join:
            group.add(lsa.source)
        else:
            group.discard(lsa.source)
        # Membership changed: every cache entry for this group is stale.
        for key, entry in self.cache.items():
            if key[1] == lsa.group_id:
                entry.valid = False

    def flush_all(self) -> None:
        """Link-state change: all cached trees are stale."""
        for entry in self.cache.values():
            entry.valid = False


class MospfNetwork:
    """A network of MOSPF routers with data-driven tree computation."""

    def __init__(
        self,
        net: Network,
        compute_time: float = 1.0,
        per_hop_delay: Optional[float] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        self.net = net
        self.compute_time = compute_time
        self.per_hop_delay = per_hop_delay
        self.sim = sim or Simulator()
        self.fabric = FloodingFabric(self.sim, net, per_hop_delay=per_hop_delay)
        self.routers = bring_up_unicast(net, self.fabric)
        self.mospf: Dict[int, _MospfRouterState] = {
            x: _MospfRouterState() for x in net.switches()
        }
        self.total_computations = 0
        self.datagrams_sent = 0
        self.datagrams_delivered = 0
        self.events_injected = 0
        self.metrics = attach_network_metrics(self)
        self.fabric.bind_metrics(self.metrics)
        for x in net.switches():
            self.fabric.register(x, self._deliver)

    # -- membership events -----------------------------------------------------

    def inject_join(self, switch: int, group_id: int, at: float) -> None:
        self.sim.schedule_at(at, lambda: self._fire(switch, group_id, join=True))

    def inject_leave(self, switch: int, group_id: int, at: float) -> None:
        self.sim.schedule_at(at, lambda: self._fire(switch, group_id, join=False))

    def _fire(self, switch: int, group_id: int, join: bool) -> None:
        self.events_injected += 1
        lsa = GroupMembershipLsa(switch, group_id, join)
        self.mospf[switch].apply_membership(lsa)
        self.fabric.flood(switch, lsa, kind="mc")

    def _deliver(self, switch: int, payload) -> None:
        if isinstance(payload, GroupMembershipLsa):
            self.mospf[switch].apply_membership(payload)

    # -- datagram forwarding -------------------------------------------------------

    def send_datagram(self, source: int, group_id: int, at: float) -> None:
        """Schedule one multicast datagram from ``source`` to ``group_id``."""
        self.sim.schedule_at(at, lambda: self._datagram_arrives(source, source, group_id))

    def _hop_delay(self, u: int, v: int) -> float:
        if self.per_hop_delay is not None:
            return self.per_hop_delay
        return self.net.link(u, v).delay

    def _datagram_arrives(self, router: int, source: int, group_id: int) -> None:
        """Datagram processing at one router: compute if cold, then forward."""
        self.sim.spawn(self._process_datagram(router, source, group_id))

    def _process_datagram(self, router: int, source: int, group_id: int):
        state = self.mospf[router]
        if router == source:
            self.datagrams_sent += 1
        key = (source, group_id)
        entry = state.cache.get(key)
        if entry is None or not entry.valid:
            # Cold cache: one topology computation at this router.
            members = frozenset(state.members.get(group_id, ()))
            image = self.routers[router].network_image()
            yield Hold(self.compute_time)
            self.total_computations += 1
            receivers = members - {source}
            tracer = obs_tracer.TRACER
            if not tracer.enabled:
                tree = source_rooted_tree(image, source, receivers)
            else:
                with tracer.span(
                    "compute",
                    cat="arbitration",
                    tid=router,
                    sim_time=self.sim.now,
                    protocol="mospf",
                    connection=group_id,
                    members=len(members),
                ):
                    tree = source_rooted_tree(image, source, receivers)
            entry = _CacheEntry(tree)
            state.cache[key] = entry
        if router in state.members.get(group_id, ()):
            self.datagrams_delivered += 1
        # Forward along the cached tree: downstream = neighbors in the tree
        # that are farther from the source (children in the rooted tree).
        tree = entry.tree
        children = self._children(tree, router, source)
        for child in children:
            delay = self._hop_delay(router, child)
            self.sim.schedule(
                delay, lambda c=child: self._datagram_arrives(c, source, group_id)
            )

    @staticmethod
    def _children(tree: MulticastTree, router: int, source: int) -> list[int]:
        """Downstream neighbors of ``router`` in the tree rooted at ``source``."""
        adj = tree.adjacency()
        if source not in adj:
            return []
        # BFS from the source to orient the tree.
        parent: Dict[int, Optional[int]] = {source: None}
        frontier = [source]
        while frontier:
            node = frontier.pop()
            for nbr in adj.get(node, ()):
                if nbr not in parent:
                    parent[nbr] = node
                    frontier.append(nbr)
        if router not in parent:
            return []
        return sorted(n for n in adj.get(router, ()) if parent.get(n) == router)

    # -- inspection -----------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def mc_floodings(self) -> int:
        return self.fabric.count_for("mc")

    def members_of(self, group_id: int, at_router: int = 0) -> frozenset:
        return frozenset(self.mospf[at_router].members.get(group_id, ()))
