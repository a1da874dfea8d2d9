"""The unicast router entity at each switch.

One :class:`UnicastRouter` runs per switch.  It originates router LSAs
describing its incident links (at startup and whenever an incident link
changes state), floods them as non-MC LSAs, installs received LSAs into its
link-state database, and keeps an OSPF-style next-hop routing table.

The D-GMC switch composes with this entity: the unicast layer discovers
"much of the network status information needed by the MC protocol" (link
delays, reachability), and its network image is what MC topology
computations run on.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.lsr.flooding import FloodingFabric
from repro.lsr.lsa import NonMcLsa, RouterLsa
from repro.lsr.lsdb import LinkStateDatabase
from repro.lsr import spf
from repro.lsr.spfcache import SolvedImages
from repro.topo.graph import Network


class UnicastRouter:
    """Per-switch unicast LSR state machine."""

    def __init__(
        self,
        switch_id: int,
        net: Network,
        fabric: FloodingFabric,
        solved: SolvedImages,
        on_image_change: Optional[Callable[[], None]] = None,
    ) -> None:
        self.switch_id = switch_id
        self.net = net
        self.fabric = fabric
        #: ``solved`` is the deployment's table of solved images, shared
        #: by all of its routers.
        self.lsdb = LinkStateDatabase(net.n, solved)
        self._seqnum = 0
        self._routing_table: Optional[Dict[int, int]] = None
        #: Hook invoked whenever the network image changes (used by D-GMC
        #: to notice link/nodal events learned via the unicast layer).
        self.on_image_change = on_image_change

    # -- origination ---------------------------------------------------------

    def _build_own_lsa(self) -> RouterLsa:
        links = tuple(
            (link.other(self.switch_id), link.delay, link.up)
            for link in sorted(
                (
                    self.net.link(self.switch_id, nbr)
                    for nbr in self.net.neighbors(self.switch_id, include_down=True)
                ),
                key=lambda lk: lk.key,
            )
        )
        self._seqnum += 1
        return RouterLsa(self.switch_id, self._seqnum, links)

    def originate(self, flood: bool = True) -> RouterLsa:
        """Build, self-install, and (optionally) flood this switch's LSA."""
        lsa = self._build_own_lsa()
        self.lsdb.install(lsa)
        self._routing_table = None
        if flood:
            self.fabric.flood(self.switch_id, NonMcLsa(self.switch_id, lsa), kind="non-mc")
        return lsa

    def notify_incident_link_event(self) -> RouterLsa:
        """React to a local link up/down: re-originate and flood.

        This is the "exactly one non-MC LSA" per link event of Figure 2.
        """
        lsa = self.originate(flood=True)
        if self.on_image_change is not None:
            self.on_image_change()
        return lsa

    @property
    def seqnum(self) -> int:
        """The last sequence number this router originated."""
        return self._seqnum

    def ensure_seqnum_above(self, seq: int) -> None:
        """Raise the origination counter past ``seq`` (crash recovery).

        OSPF's self-originated-LSA rule: when a restarted router hears a
        pre-crash LSA of its own with a sequence number at or above its
        counter, it must jump past it before re-originating, or peers will
        discard the fresh LSA as stale.
        """
        self._seqnum = max(self._seqnum, seq)

    # -- reception -------------------------------------------------------------

    def receive(self, lsa: NonMcLsa) -> bool:
        """Install a flooded non-MC LSA; returns True if it was news.

        A content-identical refresh (newer seqnum, same links) leaves the
        network image -- and with it the locally memoized routing table --
        intact; the image-change hook still fires for any accepted
        install, preserving the MC layer's triggering behavior.
        """
        changed = self.lsdb.install(lsa.description)
        if changed:
            if self.lsdb.last_install_changed_image:
                self._routing_table = None
            if self.on_image_change is not None:
                self.on_image_change()
        return changed

    # -- derived state -----------------------------------------------------------

    def network_image(self):
        """The complete local image of the network (adjacency with delays).

        An SPF-memoizing snapshot; LSA installs replace it wholesale, so
        holders of an old reference keep a consistent old image.
        """
        return self.lsdb.adjacency()

    def routing_table(self) -> Dict[int, int]:
        """Next-hop table from this switch (computed lazily, cached).

        With a cache-wrapped image the table is memoized per image
        content in the deployment's solved images; the local memo only
        serves plain (cache-disabled) images.
        """
        image = self.network_image()
        cached = getattr(image, "routing_table", None)
        if cached is not None:
            return cached(self.switch_id)
        if self._routing_table is None:
            self._routing_table = spf.routing_table(image, self.switch_id)
        return self._routing_table

    def next_hop(self, dest: int) -> Optional[int]:
        return self.routing_table().get(dest)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"UnicastRouter(switch={self.switch_id})"


def bring_up_unicast(
    net: Network, fabric: FloodingFabric
) -> Dict[int, UnicastRouter]:
    """Create one router per switch with fully synchronized databases.

    For experiments that start from a converged unicast layer (the paper's
    setting: membership events arrive on a stable network), the routers'
    databases are populated directly rather than simulating the initial
    flood storm.  The routers are one deployment: they share one table of
    solved images, which no other deployment on ``net`` reads.
    """
    solved = SolvedImages()
    routers = {x: UnicastRouter(x, net, fabric, solved) for x in net.switches()}
    lsas = {x: routers[x].originate(flood=False) for x in net.switches()}
    for x, router in routers.items():
        for origin, lsa in lsas.items():
            if origin != x:
                router.lsdb.install(lsa)
    return routers
