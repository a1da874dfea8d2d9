"""The network model: switches and bidirectional links.

Switches are integers ``0..n-1`` (the paper's LSA source addresses are
drawn from ``{0, 1, ..., n-1}``).  Links are undirected, carry a
propagation ``delay`` and a ``capacity``, and may be administratively or
operationally down -- link failures are the "link/nodal events" that the
D-GMC protocol reacts to.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, Mapping, Optional, Tuple

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


class Network:
    """A switch-level network graph with link state.

    The class intentionally stores its own adjacency (rather than wrapping a
    :class:`networkx.Graph` directly) so that link up/down transitions are a
    single flag flip and so deterministic iteration order is guaranteed;
    :meth:`to_networkx` exports a view for algorithms that want networkx.
    """

    def __init__(self, n: int, name: str = "") -> None:
        from repro.lsr.spfcache import SolvedImages

        if n < 1:
            raise ValueError("network must contain at least one switch")
        self.n = n
        self.name = name
        self._adj: Dict[int, Dict[int, Link]] = {x: {} for x in range(n)}
        self._links: Dict[Tuple[int, int], Link] = {}
        #: Optional 2-D coordinates (used by Waxman generation and plotting).
        self.positions: Dict[int, Tuple[float, float]] = {}
        #: Topology version: bumped by every link addition or up/down
        #: transition, so SPF views know when they are stale.
        self._version = 0
        #: Cached SPF views, keyed by include_down (see spf_view).
        self._spf_views: Dict[bool, object] = {}
        #: How the latest version bump changed the up-link adjacency:
        #: ``(u, v, old_weight, new_weight)``, ``None`` for an absent edge.
        self._last_delta: Optional[Tuple] = None
        #: Keys of the links that are down, kept by set_link_state.
        self._down: FrozenSet[Tuple[int, int]] = frozenset()
        #: Solved SPF images by content, shared by this network's own views
        #: only: a deployment's routers share a table of their own.
        self._solved = SolvedImages()

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
        self._invalidate_views((u, v, None, delay))
        return link

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
        """Number of up links at ``x``."""
        return sum(link.up for link in self._adj[x].values())

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
        if up != old_up:
            self._down = self._down - {link.key} if up else self._down | {link.key}
        delay = link.delay
        self._invalidate_views(
            (u, v, delay if old_up else None, delay if up else None)
        )
        return link

    # -- SPF views -----------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone topology version (bumped per link add / state change)."""
        return self._version

    @property
    def up_state(self) -> Tuple[int, FrozenSet[Tuple[int, int]]]:
        """The exact up-link state: the link count and the down links' keys.

        Links are only ever added, and always up, so two equal values
        name the same up links -- a link that fails and heals returns the
        network to the value it had before the failure, whatever versions
        passed in between.
        """
        return len(self._links), self._down

    def _invalidate_views(self, delta: Tuple) -> None:
        self._version += 1
        self._last_delta = delta
        if self._spf_views:
            self._spf_views = {}
            from repro.lsr.spfcache import GLOBAL_STATS

            GLOBAL_STATS.invalidations += 1

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
        if version != self._version - 1:
            return None
        return (self._last_delta,)

    def spf_view(self, include_down: bool = False):
        """A memoizing adjacency view (delays as weights) of this network.

        Equivalent in content to :func:`repro.lsr.spf.network_adjacency`
        but wrapped in an :class:`~repro.lsr.spfcache.SpfCache`, so SPF
        results are reused until the next link mutation invalidates the
        view, and a view whose content an earlier one had reads that
        view's solved results.  Treat the returned mapping as immutable.
        """
        from repro.lsr.spf import network_adjacency
        from repro.lsr.spfcache import content_key, enabled, wrap_image

        key = bool(include_down)
        view = self._spf_views.get(key)
        if view is not None:
            return view
        # One edge-iteration builder shared with the uncached path: see
        # spf.network_adjacency.
        adj = network_adjacency(self, include_down=include_down)
        if not enabled():
            return adj
        view = wrap_image(adj, table=self._solved, key=content_key(adj))
        self._spf_views[key] = view
        return view

    # -- graph algorithms ----------------------------------------------------

    def hop_distances(self, source: int) -> Dict[int, int]:
        """BFS hop counts from ``source`` over up links (unreachable omitted).

        Walks the adjacency as stored: a hop count does not depend on the
        order neighbours are visited in.
        """
        adj = self._adj
        dist = {source: 0}
        frontier = deque([source])
        while frontier:
            x = frontier.popleft()
            hops = dist[x] + 1
            for y, link in adj[x].items():
                if link.up and y not in dist:
                    dist[y] = hops
                    frontier.append(y)
        return dist

    def delay_distances(self, source: int) -> Dict[int, float]:
        """Dijkstra cumulative-delay distances from ``source`` over up links."""
        from repro.lsr.spf import network_adjacency, search

        return search(network_adjacency(self), source)[0]

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
        adj = self._adj
        disc: Dict[int, int] = {}
        low: Dict[int, int] = {}
        out: list[Tuple[int, int]] = []
        counter = 0

        def up_neighbors(x: int) -> Iterator[int]:
            # The visiting order moves no bridge, and the output is sorted.
            return (y for y, link in adj[x].items() if link.up)

        for root in self.switches():
            if root in disc:
                continue
            # Stack frames: (node, parent, iterator over up-neighbors).
            disc[root] = low[root] = counter
            counter += 1
            stack = [(root, -1, up_neighbors(root))]
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
                    stack.append((nbr, node, up_neighbors(nbr)))
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
        from repro.lsr.spf import network_adjacency, search

        if per_hop_delay is None:
            adj = network_adjacency(self)
            distances: Callable[[int], Mapping[int, float]] = lambda x: search(adj, x)[0]
            scale = 1.0  # exact: x * 1.0 == x
        else:
            distances, scale = self.hop_distances, per_hop_delay
        worst = 0.0
        for x in self.switches():
            dist = distances(x)
            if len(dist) < self.n:
                return math.inf
            worst = max(worst, max(dist.values()) * scale)
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
        """Deep copy (link states included)."""
        net = Network(self.n, name=self.name)
        for link in self.links(include_down=True):
            net.add_link(link.u, link.v, delay=link.delay, capacity=link.capacity)
            if not link.up:
                net.set_link_state(link.u, link.v, up=False)
        net.positions = dict(self.positions)
        return net

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Network({self.name!r}, n={self.n}, "
            f"links={self.link_count(include_down=True)})"
        )
