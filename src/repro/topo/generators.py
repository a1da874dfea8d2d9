"""Random and structured topology generators.

The paper evaluates on randomly generated graphs ("10 graphs were generated
randomly for each network size", sizes up to 100 switches).  It does not
name the generator; we default to connected **Waxman** graphs -- the
standard random-topology model of mid-1990s multicast studies (Waxman 1988;
Wei & Estrin 1994) -- and also provide flat G(n, m) random graphs and
several structured families for tests and examples.

All generators take an explicit :class:`random.Random` stream and always
return *connected* networks.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.topo.graph import Network


def _spanning_tree_backbone(net: Network, rng: random.Random) -> None:
    """Wire a random spanning tree so the network is connected.

    Uses a random permutation + random-attachment tree (uniform recursive
    tree), which yields realistic low-diameter backbones.
    """
    order = list(net.switches())
    rng.shuffle(order)
    for i in range(1, len(order)):
        parent = order[rng.randrange(i)]
        child = order[i]
        if not net.has_link(parent, child):
            net.add_link(parent, child, delay=1.0)


def waxman_network(
    n: int,
    rng: random.Random,
    alpha: float = 0.25,
    beta: float = 0.4,
    target_degree: float = 4.0,
    delay_per_unit: float = 1.0,
    name: str = "",
) -> Network:
    """Connected Waxman random graph on the unit square.

    Edge (u, v) is included with probability
    ``beta * exp(-d(u, v) / (alpha * L))`` where ``L`` is the maximum
    possible distance; candidate edges are sampled until the average degree
    reaches ``target_degree``.  Link delays are proportional to Euclidean
    distance (``delay_per_unit`` per unit), floored at 5% of a unit so no
    link is free.  A random spanning tree guarantees connectivity.
    """
    if n < 2:
        raise ValueError("waxman_network requires n >= 2")
    net = Network(n, name=name or f"waxman-{n}")
    pos = {x: (rng.random(), rng.random()) for x in range(n)}
    net.positions = pos
    scale = math.sqrt(2.0)  # max distance on the unit square

    def dist(u: int, v: int) -> float:
        (x1, y1), (x2, y2) = pos[u], pos[v]
        return math.hypot(x1 - x2, y1 - y2)

    def delay(u: int, v: int) -> float:
        return max(dist(u, v), 0.05) * delay_per_unit

    # Backbone first so the graph is always connected.
    order = list(net.switches())
    rng.shuffle(order)
    for i in range(1, n):
        parent = order[rng.randrange(i)]
        net.add_link(order[i], parent, delay=delay(order[i], parent))

    target_links = max(n - 1, int(round(target_degree * n / 2.0)))
    links = n - 1  # the backbone; counted here, net.link_count() is O(links)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if links >= target_links:
            break
        if net.has_link(u, v):
            continue
        p = beta * math.exp(-dist(u, v) / (alpha * scale))
        if rng.random() < p:
            net.add_link(u, v, delay=delay(u, v))
            links += 1
    # Waxman rejection may not reach the target on sparse layouts; top up
    # with the closest remaining pairs so densities stay comparable.
    if links < target_links:
        remaining = [(dist(u, v), u, v) for u, v in pairs if not net.has_link(u, v)]
        remaining.sort()
        for _, u, v in remaining[: target_links - links]:
            net.add_link(u, v, delay=delay(u, v))
    return net


def random_connected_network(
    n: int,
    rng: random.Random,
    extra_links: Optional[int] = None,
    delay_range: tuple[float, float] = (0.5, 1.5),
    name: str = "",
) -> Network:
    """Flat random connected graph: spanning tree + ``extra_links`` chords.

    ``extra_links`` defaults to ``n`` (average degree about 4).  Link delays
    are uniform in ``delay_range``.
    """
    net = Network(n, name=name or f"random-{n}")
    _spanning_tree_backbone(net, rng)
    if extra_links is None:
        extra_links = n
    lo, hi = delay_range
    attempts = 0
    added = 0
    max_possible = n * (n - 1) // 2 - net.link_count()
    extra_links = min(extra_links, max_possible)
    while added < extra_links and attempts < 50 * (extra_links + 1):
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or net.has_link(u, v):
            continue
        net.add_link(u, v, delay=rng.uniform(lo, hi))
        added += 1
    for link in net.links():
        link.delay = rng.uniform(lo, hi)
    return net


def grid_network(rows: int, cols: int, delay: float = 1.0, name: str = "") -> Network:
    """Rows x cols mesh; switch ``r * cols + c`` sits at grid position (r, c)."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    net = Network(rows * cols, name=name or f"grid-{rows}x{cols}")
    for r in range(rows):
        for c in range(cols):
            x = r * cols + c
            net.positions[x] = (float(c), float(r))
            if c + 1 < cols:
                net.add_link(x, x + 1, delay=delay)
            if r + 1 < rows:
                net.add_link(x, x + cols, delay=delay)
    return net


def ring_network(n: int, delay: float = 1.0, name: str = "") -> Network:
    """Cycle of ``n`` switches (n >= 3)."""
    if n < 3:
        raise ValueError("ring requires n >= 3")
    net = Network(n, name=name or f"ring-{n}")
    for x in range(n):
        net.add_link(x, (x + 1) % n, delay=delay)
    return net


def star_network(n: int, delay: float = 1.0, name: str = "") -> Network:
    """Switch 0 at the hub, switches 1..n-1 as leaves."""
    if n < 2:
        raise ValueError("star requires n >= 2")
    net = Network(n, name=name or f"star-{n}")
    for x in range(1, n):
        net.add_link(0, x, delay=delay)
    return net


def tree_network(
    n: int, rng: random.Random, delay: float = 1.0, name: str = ""
) -> Network:
    """Uniform random recursive tree on ``n`` switches."""
    if n < 1:
        raise ValueError("tree requires n >= 1")
    net = Network(n, name=name or f"tree-{n}")
    for x in range(1, n):
        net.add_link(x, rng.randrange(x), delay=delay)
    return net


def clustered_network(
    clusters: int,
    cluster_size: int,
    rng: random.Random,
    inter_links_per_pair: int = 1,
    intra_extra_links: Optional[int] = None,
    inter_delay: float = 3.0,
    delay_range: tuple[float, float] = (0.5, 1.5),
    name: str = "",
) -> Network:
    """A hierarchy-shaped network: dense clusters, sparse inter-cluster links.

    Models a multi-area routing domain (stub areas + longer inter-area
    trunks): each cluster is a connected random subgraph of
    ``cluster_size`` switches; each *adjacent* cluster pair (ring order)
    gets ``inter_links_per_pair`` trunk links of ``inter_delay`` between
    randomly chosen gateway switches.  Switch ``x`` belongs to cluster
    ``x // cluster_size``.
    """
    if clusters < 2 or cluster_size < 2:
        raise ValueError("need >= 2 clusters of >= 2 switches")
    n = clusters * cluster_size
    net = Network(n, name=name or f"clustered-{clusters}x{cluster_size}")
    lo, hi = delay_range
    if intra_extra_links is None:
        intra_extra_links = cluster_size
    for c in range(clusters):
        base = c * cluster_size
        ids = list(range(base, base + cluster_size))
        order = ids[:]
        rng.shuffle(order)
        for i in range(1, cluster_size):
            parent = order[rng.randrange(i)]
            net.add_link(order[i], parent, delay=rng.uniform(lo, hi))
        added = 0
        attempts = 0
        while added < intra_extra_links and attempts < 50 * intra_extra_links:
            attempts += 1
            u, v = rng.sample(ids, 2)
            if not net.has_link(u, v):
                net.add_link(u, v, delay=rng.uniform(lo, hi))
                added += 1
    # Ring of trunks between adjacent clusters keeps the backbone small.
    for c in range(clusters):
        nxt = (c + 1) % clusters
        if clusters == 2 and c == 1:
            break  # avoid doubling the single pair
        for _ in range(inter_links_per_pair):
            for _ in range(50):
                u = c * cluster_size + rng.randrange(cluster_size)
                v = nxt * cluster_size + rng.randrange(cluster_size)
                if not net.has_link(u, v):
                    net.add_link(u, v, delay=inter_delay)
                    break
    return net


def dumbbell_network(
    side: int, bridge_delay: float = 5.0, delay: float = 1.0, name: str = ""
) -> Network:
    """Two cliques of ``side`` switches joined by one long bridge link.

    Useful for exercising the WAN regime (Experiment 2): the bridge
    dominates the flooding diameter.
    """
    if side < 2:
        raise ValueError("dumbbell sides must have >= 2 switches")
    n = 2 * side
    net = Network(n, name=name or f"dumbbell-{side}")
    for base in (0, side):
        for i in range(side):
            for j in range(i + 1, side):
                net.add_link(base + i, base + j, delay=delay)
    net.add_link(side - 1, side, delay=bridge_delay)
    return net
