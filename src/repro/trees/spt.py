"""Source-rooted shortest-path trees (the MOSPF / asymmetric-MC topology).

MOSPF "computes a shortest-path tree, rooted at the source of the datagram,
that reaches all hosts listening to M".  :func:`source_rooted_tree` builds
exactly that: the Dijkstra tree from the source, pruned so every leaf is a
receiver.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.lsr import spf
from repro.trees.base import MulticastTree, TreeError, path_union


def source_rooted_tree(
    adj: Mapping[int, Mapping[int, float]],
    source: int,
    receivers: Iterable[int],
) -> MulticastTree:
    """Shortest-path tree from ``source`` pruned to ``receivers``: the union
    of the source -> receiver paths, so every leaf is a receiver (or the
    source itself).

    Raises :class:`TreeError` when some receiver is unreachable.
    """
    receivers = frozenset(receivers)
    dist, parent = spf.dijkstra(adj, source)
    missing = receivers - dist.keys()
    if missing:
        raise TreeError(f"receivers unreachable from {source}: {sorted(missing)}")
    edges = path_union(parent, receivers)
    # The edges are canonical already: no MulticastTree.build pass.  They
    # are inserted one by one all the same, as that pass did, so the set
    # iterates in the order it did (sums over the edges are float sums).
    return MulticastTree(frozenset(iter(edges)), receivers | {source}, source)


def prune_to_receivers(tree: MulticastTree, receivers: Iterable[int]) -> MulticastTree:
    """Repeatedly strip non-receiver leaves (the root is never stripped).

    Used when receivers leave: the remaining tree stays a valid
    source-rooted tree for the smaller receiver set.
    """
    receivers = frozenset(receivers)
    keep = receivers | ({tree.root} if tree.root is not None else frozenset())
    edges = set(tree.edges)
    changed = True
    while changed:
        changed = False
        degree: dict[int, int] = {}
        for u, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        for node, deg in list(degree.items()):
            if deg == 1 and node not in keep:
                edges = {e for e in edges if node not in e}
                changed = True
    members = receivers | ({tree.root} if tree.root is not None else frozenset())
    return MulticastTree.build(edges, members, root=tree.root)
