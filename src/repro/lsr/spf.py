"""Shortest-path-first computations over an adjacency view.

All functions take an *adjacency mapping* ``{node: {neighbor: weight}}``
(what :meth:`repro.lsr.lsdb.LinkStateDatabase.adjacency` and
:meth:`repro.topo.graph.Network` views produce), keeping the algorithms
independent of the concrete graph container.  Ties are broken by node id so
every switch computing on the same image derives the *same* tree -- a
property both OSPF and the D-GMC protocol rely on.

When the adjacency is a :class:`~repro.lsr.spfcache.SpfCache` (the wrapped
images the LSDB and the Network hand out), every function delegates to the
cache's memoized results, so repeated computations on one network image
run Dijkstra once.  Plain mappings take the uncached path, byte-identical
in output to the cached one.
"""

from __future__ import annotations

import heapq
from typing import Dict, Mapping, Optional

from repro.obs import tracer as obs_tracer


Adjacency = Mapping[int, Mapping[int, float]]


class RunCounter:
    """Process-wide count of full Dijkstra executions (cached misses and
    uncached calls alike); ``benchmarks/regress.py`` diffs it per trial."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


RUN_COUNTER = RunCounter()

#: Process-wide count of edge relaxations (edges examined), by full runs
#: and by :mod:`repro.lsr.ispf` repairs alike.  This is the unit in which
#: the bench gate verifies that incremental SPF does strictly less work
#: than recomputing from scratch.
RELAX_COUNTER = RunCounter()

#: Process-wide count of first-hop propagation steps spent deriving
#: routing tables.  One step per destination: tables are built by a
#: single pass in nondecreasing-distance order (each destination
#: inherits its parent's first hop), so the total is O(n) per table --
#: the regression suite pins this, guarding against reintroducing the
#: per-destination parent-chain walk that was quadratic on path-like
#: graphs.
TABLE_STEP_COUNTER = RunCounter()


def network_adjacency(net, include_down: bool = False) -> Dict[int, Dict[int, float]]:
    """Build a fresh, plain adjacency mapping (delays as weights) from a
    Network.  For a memoizing view, use :meth:`Network.spf_view` instead."""
    adj: Dict[int, Dict[int, float]] = {x: {} for x in net.switches()}
    for link in net.links(include_down=include_down):
        adj[link.u][link.v] = link.delay
        adj[link.v][link.u] = link.delay
    return adj


def dijkstra(
    adj: Adjacency, source: int
) -> tuple[Dict[int, float], Dict[int, Optional[int]]]:
    """Single-source shortest paths.

    Returns ``(dist, parent)``; unreachable nodes appear in neither map.
    ``parent[source] is None``.  Equal-cost paths are resolved toward the
    lower parent id, deterministically.  Cached adjacencies return their
    memoized result; treat it as immutable.
    """
    sssp = getattr(adj, "sssp", None)
    if sssp is not None:
        return sssp(source)
    return dijkstra_uncached(adj, source)


def dijkstra_uncached(
    adj: Adjacency, source: int
) -> tuple[Dict[int, float], Dict[int, Optional[int]]]:
    """The raw Dijkstra run (no memoization); counts into RUN_COUNTER.

    When tracing is enabled, each run is a ``dijkstra`` span (category
    ``spf``) -- the SPF slice of the ``repro profile`` phase breakdown.
    """
    RUN_COUNTER.count += 1
    tracer = obs_tracer.TRACER
    if not tracer.enabled:
        return _dijkstra_body(adj, source)
    with tracer.span("dijkstra", cat="spf", source=source, nodes=len(adj)):
        return _dijkstra_body(adj, source)


def _dijkstra_body(
    adj: Adjacency, source: int
) -> tuple[Dict[int, float], Dict[int, Optional[int]]]:
    dist: Dict[int, float] = {}
    parent: Dict[int, Optional[int]] = {}
    relaxed = 0
    # Heap entries: (distance, tie-break parent id, node, parent).
    heap: list[tuple[float, int, int, Optional[int]]] = [(0.0, -1, source, None)]
    while heap:
        d, _, node, via = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        parent[node] = via
        nbrs = adj.get(node, {})
        relaxed += len(nbrs)
        for nbr, w in nbrs.items():
            if nbr not in dist:
                heapq.heappush(heap, (d + w, node, nbr, node))
    RELAX_COUNTER.count += relaxed
    return dist, parent


def shortest_path(adj: Adjacency, source: int, target: int) -> Optional[list[int]]:
    """Node list of the shortest path, or ``None`` if unreachable.

    On a cached adjacency, repeated queries from one source reuse a single
    SSSP solve instead of re-running Dijkstra per ``(source, target)``.
    """
    cached = getattr(adj, "shortest_path", None)
    if cached is not None:
        return cached(source, target)
    dist, parent = dijkstra(adj, source)
    if target not in dist:
        return None
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    path.reverse()
    return path


def path_edges(path: list[int]) -> list[tuple[int, int]]:
    """Canonical (sorted-endpoint) edge list of a node path."""
    return [tuple(sorted((path[i], path[i + 1]))) for i in range(len(path) - 1)]


def next_hop_dag(adj: Adjacency, source: int) -> Dict[int, tuple]:
    """Per-destination next-hop DAG from ``source`` (mDT-style multipath).

    For every reachable destination ``d`` the value is the sorted tuple of
    neighbors ``n`` of ``source`` that are safe first hops toward ``d``:

    * **ECMP**: ``dist_s[d] == w(s, n) + dist_n[d]`` -- ``n`` lies on a
      shortest path, so all equal-cost parallels are kept, not just the
      lowest-parent-id one the Dijkstra tie-break picks;
    * **LFA**: ``dist_n[d] < dist_s[d]`` -- the downstream criterion; the
      neighbor is strictly closer to ``d`` than ``source`` is, so routing
      via ``n`` can never loop back through ``source``.

    The union over all destinations is loop-free per destination (every
    hop strictly decreases the remaining distance bound), which is what
    lets :mod:`repro.frr` pick a detour first hop without re-running SPF.
    Cached adjacencies return their memoized DAG; the per-neighbor SSSP
    solves it needs are exactly the ones :meth:`SpfCache.sssp` already
    memoizes, so on one image the marginal cost is one solve per neighbor.
    """
    cached = getattr(adj, "dag", None)
    if cached is not None:
        return cached(source)
    return dag_body(adj, source)


def dag_body(adj: Adjacency, source: int) -> Dict[int, tuple]:
    """The uncached next-hop DAG computation (see :func:`next_hop_dag`)."""
    dist_s, _ = dijkstra(adj, source)
    neighbors = sorted(adj.get(source, {}).items())
    neighbor_dist = {n: dijkstra(adj, n)[0] for n, _ in neighbors}
    dag: Dict[int, tuple] = {}
    for dest in sorted(dist_s):
        if dest == source:
            continue
        hops = []
        for n, w in neighbors:
            dn = neighbor_dist[n].get(dest)
            if dn is None:
                continue
            if dist_s[dest] == w + dn or dn < dist_s[dest]:
                hops.append(n)
        dag[dest] = tuple(hops)
    return dag


def first_hop_table(
    source: int, dist: Dict[int, float], parent: Dict[int, Optional[int]]
) -> Dict[int, int]:
    """Destination -> first hop, in one pass over a solved SSSP tree.

    Destinations are processed in nondecreasing distance; a parent
    settles strictly before its children (weights are positive), so each
    destination either touches the source directly or inherits its
    parent's already-known first hop.  Total work is O(n log n) for the
    sort plus one :data:`TABLE_STEP_COUNTER` step per destination --
    the old per-destination walk to the source was O(n * depth),
    quadratic on path-like graphs.  The table iterates in ``dist``
    iteration order, byte-identical to the walk it replaced.
    """
    first: Dict[int, int] = {}
    steps = 0
    for dest in sorted(dist, key=dist.__getitem__):
        via = parent.get(dest)
        if via is None:  # the source itself
            continue
        steps += 1
        first[dest] = dest if via == source else first[via]
    TABLE_STEP_COUNTER.count += steps
    return {dest: first[dest] for dest in dist if dest != source}


def routing_table(adj: Adjacency, source: int) -> Dict[int, int]:
    """OSPF-style next-hop table: destination -> first hop from ``source``."""
    cached = getattr(adj, "routing_table", None)
    if cached is not None:
        return cached(source)
    dist, parent = dijkstra(adj, source)
    return first_hop_table(source, dist, parent)


def eccentricity(adj: Adjacency, node: int) -> float:
    """Largest shortest-path distance from ``node`` to any reachable node."""
    cached = getattr(adj, "eccentricity", None)
    if cached is not None:
        return cached(node)
    dist, _ = dijkstra(adj, node)
    return max(dist.values()) if dist else 0.0
