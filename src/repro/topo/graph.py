"""The network model: switches, bidirectional links, and attached hosts.

Switches are integers ``0..n-1`` (the paper's LSA source addresses are
drawn from ``{0, 1, ..., n-1}``).  Links are undirected, carry a
propagation ``delay`` and a ``capacity``, and may be administratively or
operationally down -- link failures are the "link/nodal events" that the
D-GMC protocol reacts to.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Tuple

import networkx as nx


def _edge_key(u: int, v: int) -> Tuple[int, int]:
    """Canonical undirected edge key."""
    return (u, v) if u <= v else (v, u)


@dataclass
class Link:
    """An undirected point-to-point link between two switches."""

    u: int
    v: int
    delay: float = 1.0
    capacity: float = 1.0
    up: bool = True

    @property
    def key(self) -> Tuple[int, int]:
        return _edge_key(self.u, self.v)

    def other(self, node: int) -> int:
        """The endpoint opposite ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"{node} is not an endpoint of link {self.key}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "DOWN"
        return f"Link({self.u}-{self.v}, delay={self.delay:.4g}, {state})"


@dataclass
class Host:
    """A host attached to its ingress switch."""

    host_id: str
    ingress: int
    #: Free-form attributes (e.g. application role).
    attrs: dict = field(default_factory=dict)


class Network:
    """A switch-level network graph with link state and host attachments.

    The class intentionally stores its own adjacency (rather than wrapping a
    :class:`networkx.Graph` directly) so that link up/down transitions are a
    single flag flip and so deterministic iteration order is guaranteed;
    :meth:`to_networkx` exports a view for algorithms that want networkx.
    """

    def __init__(self, n: int, name: str = "") -> None:
        if n < 1:
            raise ValueError("network must contain at least one switch")
        self.n = n
        self.name = name
        self._adj: Dict[int, Dict[int, Link]] = {x: {} for x in range(n)}
        self._links: Dict[Tuple[int, int], Link] = {}
        self._hosts: Dict[str, Host] = {}
        #: Optional 2-D coordinates (used by Waxman generation and plotting).
        self.positions: Dict[int, Tuple[float, float]] = {}
        #: Topology version: bumped by every link addition or up/down
        #: transition, so SPF views know when they are stale.
        self._version = 0
        #: Cached SPF views, keyed by include_down (see spf_view).
        self._spf_views: Dict[bool, object] = {}
        #: Views superseded by the last invalidation, kept one step so the
        #: next :meth:`spf_view` can chain them for incremental SPF.
        self._prev_views: Dict[bool, object] = {}
        #: The mutation behind the latest version bump:
        #: ``("add", u, v, delay)`` or ``("state", u, v, delay, old_up, up)``.
        self._last_event: Optional[Tuple] = None
        self._last_event_version = -1

    # -- construction ------------------------------------------------------

    def add_link(
        self, u: int, v: int, delay: float = 1.0, capacity: float = 1.0
    ) -> Link:
        """Add an undirected link; parallel links and self-loops are rejected."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError(f"self-loop at switch {u}")
        key = _edge_key(u, v)
        if key in self._links:
            raise ValueError(f"duplicate link {key}")
        if delay <= 0:
            raise ValueError(f"link delay must be positive, got {delay}")
        link = Link(u, v, delay=delay, capacity=capacity)
        self._links[key] = link
        self._adj[u][v] = link
        self._adj[v][u] = link
        self._invalidate_views(("add", u, v, delay))
        return link

    def attach_host(self, host_id: str, ingress: int, **attrs) -> Host:
        """Attach a host to its ingress switch."""
        self._check_node(ingress)
        if host_id in self._hosts:
            raise ValueError(f"duplicate host {host_id!r}")
        host = Host(host_id, ingress, dict(attrs))
        self._hosts[host_id] = host
        return host

    def _check_node(self, x: int) -> None:
        if not (0 <= x < self.n):
            raise ValueError(f"switch id {x} out of range [0, {self.n})")

    # -- queries -----------------------------------------------------------

    def switches(self) -> range:
        return range(self.n)

    def links(self, include_down: bool = False) -> Iterator[Link]:
        """All links, sorted by key for determinism."""
        for key in sorted(self._links):
            link = self._links[key]
            if include_down or link.up:
                yield link

    def link(self, u: int, v: int) -> Link:
        """The link between ``u`` and ``v`` (KeyError if absent)."""
        return self._links[_edge_key(u, v)]

    def has_link(self, u: int, v: int) -> bool:
        return _edge_key(u, v) in self._links

    def neighbors(self, x: int, include_down: bool = False) -> list[int]:
        """Neighbor switches of ``x`` over (by default) up links, sorted."""
        return sorted(
            y for y, link in self._adj[x].items() if include_down or link.up
        )

    def degree(self, x: int) -> int:
        return len(self.neighbors(x))

    def hosts(self) -> Iterable[Host]:
        return self._hosts.values()

    def host(self, host_id: str) -> Host:
        return self._hosts[host_id]

    def link_count(self, include_down: bool = False) -> int:
        if include_down:
            return len(self._links)
        return sum(link.up for link in self._links.values())

    # -- link state --------------------------------------------------------

    def set_link_state(self, u: int, v: int, up: bool) -> Link:
        """Mark a link up or down; returns the link."""
        link = self.link(u, v)
        old_up = link.up
        link.up = up
        self._invalidate_views(("state", u, v, link.delay, old_up, up))
        return link

    # -- SPF views -----------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone topology version (bumped per link add / state change)."""
        return self._version

    def _invalidate_views(self, event: Optional[Tuple] = None) -> None:
        self._version += 1
        self._last_event = event
        self._last_event_version = self._version
        if self._spf_views:
            self._prev_views = self._spf_views
            self._spf_views = {}
            from repro.lsr.spfcache import GLOBAL_STATS

            GLOBAL_STATS.invalidations += 1

    @staticmethod
    def _event_delta(event: Optional[Tuple], include_down: bool):
        """Translate a recorded mutation into a view's single-link delta
        ``(u, v, old_weight, new_weight)``, or None if untranslatable."""
        if event is None:
            return None
        if event[0] == "add":
            _, u, v, delay = event
            return (u, v, None, delay)
        _, u, v, delay, old_up, new_up = event
        if include_down:
            # The all-links view keeps every edge regardless of state, so
            # an up/down flip leaves it unchanged (a no-op delta).
            return (u, v, delay, delay)
        return (u, v, delay if old_up else None, delay if new_up else None)

    def up_delta_since(self, version: int):
        """How the up-link adjacency changed since ``version``.

        Returns ``()`` when nothing changed, a 1-tuple of
        ``(u, v, old_weight, new_weight)`` when exactly one recorded
        mutation happened, and ``None`` when the gap is wider than one
        event (caller must rebuild from scratch).  Lets single-link
        consumers -- the batch data plane's compiled templates --
        invalidate only what the link touches.
        """
        if version == self._version:
            return ()
        if version != self._version - 1 or self._last_event_version != self._version:
            return None
        delta = self._event_delta(self._last_event, include_down=False)
        return None if delta is None else (delta,)

    def spf_view(self, include_down: bool = False):
        """A memoizing adjacency view (delays as weights) of this network.

        Equivalent in content to :func:`repro.lsr.spf.network_adjacency`
        but wrapped in an :class:`~repro.lsr.spfcache.SpfCache`, so SPF
        results are reused until the next link mutation invalidates the
        view.  When exactly one recorded mutation separates the new view
        from its predecessor, the delta is threaded into the cache so
        misses repair the old trees incrementally.  Treat the returned
        mapping as immutable.
        """
        from repro.lsr.spf import network_adjacency
        from repro.lsr.spfcache import SpfCache, enabled, wrap_image

        key = bool(include_down)
        view = self._spf_views.get(key)
        if view is not None:
            return view
        # One edge-iteration builder shared with the uncached path: see
        # spf.network_adjacency.
        adj = network_adjacency(self, include_down=include_down)
        if not enabled():
            return adj
        prev = self._prev_views.pop(key, None)
        delta = None
        if (
            isinstance(prev, SpfCache)
            and prev.generation == self._version - 1
            and self._last_event_version == self._version
        ):
            single = self._event_delta(self._last_event, include_down=key)
            delta = (single,) if single is not None else None
        view = wrap_image(
            adj,
            generation=self._version,
            prev=prev,
            delta=delta,
        )
        self._spf_views[key] = view
        return view

    # -- graph algorithms ----------------------------------------------------

    def hop_distances(self, source: int) -> Dict[int, int]:
        """BFS hop counts from ``source`` over up links (unreachable omitted)."""
        dist = {source: 0}
        frontier = deque([source])
        while frontier:
            x = frontier.popleft()
            for y in self.neighbors(x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    frontier.append(y)
        return dist

    def delay_distances(self, source: int) -> Dict[int, float]:
        """Dijkstra cumulative-delay distances from ``source`` over up links."""
        import heapq

        dist: Dict[int, float] = {}
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, x = heapq.heappop(heap)
            if x in dist:
                continue
            dist[x] = d
            for y in self.neighbors(x):
                if y not in dist:
                    heapq.heappush(heap, (d + self._adj[x][y].delay, y))
        return dist

    def is_connected(self) -> bool:
        """True when every switch is reachable over up links."""
        return len(self.hop_distances(0)) == self.n

    def bridges(self) -> list[Tuple[int, int]]:
        """All bridge edges over up links, as sorted canonical keys.

        A bridge is an up link whose removal disconnects its component.
        One Tarjan lowpoint pass over the up-link graph (iterative DFS, so
        deep topologies cannot hit the recursion limit): O(V + E) total,
        versus probing connectivity once per link.
        """
        disc: Dict[int, int] = {}
        low: Dict[int, int] = {}
        out: list[Tuple[int, int]] = []
        counter = 0
        for root in self.switches():
            if root in disc:
                continue
            # Stack frames: (node, parent, iterator over up-neighbors).
            disc[root] = low[root] = counter
            counter += 1
            stack = [(root, -1, iter(self.neighbors(root)))]
            # One parent edge may be retraversed per node (parallel links
            # are rejected at add_link, so a single skip is exact).
            skipped_parent = {root: False}
            while stack:
                node, parent, it = stack[-1]
                advanced = False
                for nbr in it:
                    if nbr == parent and not skipped_parent[node]:
                        skipped_parent[node] = True
                        continue
                    if nbr in disc:
                        low[node] = min(low[node], disc[nbr])
                        continue
                    disc[nbr] = low[nbr] = counter
                    counter += 1
                    skipped_parent[nbr] = False
                    stack.append((nbr, node, iter(self.neighbors(nbr))))
                    advanced = True
                    break
                if advanced:
                    continue
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[node])
                    if low[node] > disc[parent]:
                        out.append(_edge_key(parent, node))
        return sorted(out)

    def diameter_hops(self) -> int:
        """Largest hop distance between any pair of switches (up links)."""
        worst = 0
        for x in self.switches():
            dist = self.hop_distances(x)
            if len(dist) < self.n:
                return -1  # disconnected
            worst = max(worst, max(dist.values()))
        return worst

    def flooding_diameter(self, per_hop_delay: Optional[float] = None) -> float:
        """Worst-case time for a flood to reach all switches (paper's Tf).

        With ``per_hop_delay`` given, the flood takes ``hops * per_hop_delay``
        along the fastest hop path; otherwise actual link delays are summed.
        """
        worst = 0.0
        for x in self.switches():
            if per_hop_delay is not None:
                dist = self.hop_distances(x)
                if len(dist) < self.n:
                    return math.inf
                worst = max(worst, max(dist.values()) * per_hop_delay)
            else:
                dist = self.delay_distances(x)
                if len(dist) < self.n:
                    return math.inf
                worst = max(worst, max(dist.values()))
        return worst

    # -- export / copy ---------------------------------------------------------

    def to_networkx(self, include_down: bool = False) -> nx.Graph:
        """Export to :class:`networkx.Graph` with ``delay`` edge weights."""
        g = nx.Graph()
        g.add_nodes_from(self.switches())
        for link in self.links(include_down=include_down):
            g.add_edge(link.u, link.v, delay=link.delay, capacity=link.capacity)
        return g

    def copy(self) -> "Network":
        """Deep copy (hosts and link states included)."""
        net = Network(self.n, name=self.name)
        for link in self.links(include_down=True):
            new = net.add_link(link.u, link.v, delay=link.delay, capacity=link.capacity)
            new.up = link.up
        for host in self.hosts():
            net.attach_host(host.host_id, host.ingress, **host.attrs)
        net.positions = dict(self.positions)
        return net

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Network({self.name!r}, n={self.n}, "
            f"links={self.link_count(include_down=True)})"
        )
