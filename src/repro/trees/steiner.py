"""Steiner tree heuristics for symmetric and receiver-only MCs.

"The problem of determining an optimal symmetric MC topology is the
well-known minimum Steiner tree problem" (Section 1, citing Winter's
survey).  Two classic polynomial heuristics are provided:

* :func:`kmb_steiner_tree` -- the Kou–Markowsky–Berman (1981) heuristic:
  MST of the terminals' metric closure, expanded to real paths, re-MST'd
  and pruned.  Worst-case cost ratio 2(1 - 1/|terminals|) vs optimal.
* :func:`pruned_spt_steiner_tree` -- cheaper: the shortest-path tree from a
  deterministic anchor terminal, pruned to the terminals.  This is the
  "from scratch" computation used by default in the simulation study,
  because its cost (one Dijkstra) matches the Tc regime the paper models.

Both are deterministic: ties break toward smaller node ids, so every
switch computing on the same network image produces the identical tree.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, Mapping, Tuple

from repro.lsr import spf
from repro.trees.base import MulticastTree, TreeError, canonical_edge
from repro.trees.spt import prune_to_receivers, source_rooted_tree


def _metric_closure(
    adj: Mapping[int, Mapping[int, float]], terminals: Tuple[int, ...]
) -> tuple[Dict[Tuple[int, int], float], Dict[int, Dict[int, list[int]]]]:
    """Pairwise distances and paths among terminals.

    Returns ``(dist, paths)`` where ``dist[(a, b)]`` (a < b) is the
    shortest-path distance and ``paths[a][b]`` the node path from each
    source terminal ``a``.
    """
    dist: Dict[Tuple[int, int], float] = {}
    paths: Dict[int, Dict[int, list[int]]] = {}
    for a in terminals:
        d, parent = spf.dijkstra(adj, a)
        paths[a] = {}
        for b in terminals:
            if b == a:
                continue
            if b not in d:
                raise TreeError(f"terminal {b} unreachable from {a}")
            pair = (a, b) if a < b else (b, a)
            dist[pair] = d[b]
            paths[a][b] = spf.path_to(parent, b)
    return dist, paths


def _mst_prim(nodes: list, neighbours: Callable) -> list:
    """Prim's MST over ``nodes``; returns the ``(parent, child)`` edge list.

    ``neighbours(u)`` yields ``(v, weight)`` pairs.  Deterministic: pops
    are ordered by ``(weight, u, v)``, so ties break toward smaller ids.
    """
    if len(nodes) <= 1:
        return []
    start = min(nodes)
    in_tree = {start}
    heap = [(w, start, v) for v, w in neighbours(start)]
    heapq.heapify(heap)
    edges = []
    while heap and len(in_tree) < len(nodes):
        w, u, v = heapq.heappop(heap)
        if v in in_tree:
            continue
        in_tree.add(v)
        edges.append((u, v))
        for x, wx in neighbours(v):
            if x not in in_tree:
                heapq.heappush(heap, (wx, v, x))
    if len(in_tree) < len(nodes):
        raise TreeError("MST inputs are disconnected")
    return edges


def kmb_steiner_tree(
    adj: Mapping[int, Mapping[int, float]], terminals: Iterable[int]
) -> MulticastTree:
    """Kou–Markowsky–Berman Steiner heuristic.

    1. MST of the metric closure over ``terminals``.
    2. Replace each closure edge by its underlying shortest path.
    3. MST of the resulting subgraph.
    4. Prune non-terminal leaves.
    """
    terms = tuple(sorted(set(terminals)))
    if len(terms) == 0:
        return MulticastTree.empty()
    if len(terms) == 1:
        return MulticastTree.empty(terms)
    closure_dist, closure_paths = _metric_closure(adj, terms)

    def closure_neighbours(a: int):
        for b in terms:
            if b != a:
                yield b, closure_dist[(a, b) if a < b else (b, a)]

    closure_mst = _mst_prim(list(terms), closure_neighbours)

    # Union of the shortest paths realizing the closure MST edges.
    sub_adj: Dict[int, Dict[int, float]] = {}
    for a, b in closure_mst:
        path = closure_paths[a][b] if b in closure_paths.get(a, {}) else closure_paths[b][a]
        for i in range(len(path) - 1):
            u, v = path[i], path[i + 1]
            w = adj[u][v]
            sub_adj.setdefault(u, {})[v] = w
            sub_adj.setdefault(v, {})[u] = w

    # MST of that subgraph.
    edges = {
        canonical_edge(u, v)
        for u, v in _mst_prim(sorted(sub_adj), lambda u: sub_adj[u].items())
    }
    tree = MulticastTree.build(edges, terms)
    # Prune non-terminal leaves (reuse the receiver-prune with no root).
    return prune_to_receivers(tree, terms).with_members(terms)


def pruned_spt_steiner_tree(
    adj: Mapping[int, Mapping[int, float]],
    terminals: Iterable[int],
) -> MulticastTree:
    """Steiner approximation: SPT from the smallest-id terminal, pruned.

    One Dijkstra; the anchor is ``min(terminals)`` so all switches agree.
    :func:`source_rooted_tree` keeps only the anchor -> terminal paths, so
    every leaf is a terminal already and no prune pass is needed.
    """
    terms = frozenset(terminals)
    if not terms:
        return MulticastTree.empty()
    anchor = min(terms)
    tree = source_rooted_tree(adj, anchor, terms - {anchor})
    # The copy a prune pass made, kept for its iteration order: the
    # rebuild test sums weights over these edges.
    return MulticastTree(frozenset(iter(set(tree.edges))), terms, root=None)
