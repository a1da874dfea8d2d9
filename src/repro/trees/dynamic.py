"""Incremental (dynamic) Steiner tree maintenance.

Section 3.5: "Whenever possible, an implementation should invoke an
incremental update algorithm, which adds a tree branch to reach a new
member or removes a branch from a leaving member.  Brand-new MC topologies
are computed only when the network configuration changes adversely and/or
the present topology deviates significantly from an optimal one."

:func:`graft_path` / :func:`prune_member` implement the Imase–Waxman GREEDY
operations (Dynamic Steiner Tree Problem, SIAM J. Discrete Math 1991);
:class:`GreedyDynamicSteiner` wraps them with a from-scratch rebuild policy
based on a cost-degradation threshold: a maintained tree costing more than
1.5 times a fresh pruned shortest-path tree is replaced by it.
"""

from __future__ import annotations

import heapq
from typing import Mapping, Optional

from repro.trees.base import MulticastTree, TreeError
from repro.trees.steiner import pruned_spt_steiner_tree

#: The row of a node absent from the image (never written).
_NO_ROW: Mapping[int, float] = {}


def graft_path(
    adj: Mapping[int, Mapping[int, float]],
    tree: MulticastTree,
    new_member: int,
) -> MulticastTree:
    """Greedy join: connect ``new_member`` by its cheapest path to the tree.

    A multi-source Dijkstra from every current tree node finds the cheapest
    attachment path; its edges are grafted.  If the tree is empty the new
    member forms a trivial tree.  A cached image is searched through its
    plain row table (:attr:`~repro.lsr.spfcache.SpfCache.rows`).
    """
    members = tree.members | {new_member}
    tree_nodes = tree.nodes()
    if not tree_nodes or tree_nodes == {new_member}:
        return MulticastTree(tree.edges, frozenset(members), tree.root)
    if new_member in tree_nodes:
        return MulticastTree(tree.edges, frozenset(members), tree.root)
    rows = getattr(adj, "rows", adj)
    # Multi-source Dijkstra from all tree nodes (deterministic ties).  The
    # tree nodes settle at distance 0 before anything else (weights are
    # positive), so they are settled up front and the heap starts as their
    # edges out of the tree.
    dist: dict[int, float] = dict.fromkeys(tree_nodes, 0.0)
    parent: dict[int, Optional[int]] = dict.fromkeys(tree_nodes)
    heap = [
        (w, nbr, node)
        for node in tree_nodes
        for nbr, w in rows.get(node, _NO_ROW).items()
        if nbr not in dist
    ]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, node, via = pop(heap)
        if node in dist:
            continue
        dist[node] = d
        parent[node] = via
        if node == new_member:
            break
        for nbr, w in rows.get(node, _NO_ROW).items():
            if nbr not in dist:
                push(heap, (d + w, nbr, node))
    if new_member not in dist:
        raise TreeError(f"member {new_member} unreachable from the tree")
    edges = set(tree.edges)
    node = new_member
    up = parent[node]
    while up is not None:
        edges.add((node, up) if node <= up else (up, node))  # canonical_edge
        node, up = up, parent[up]
    return MulticastTree(frozenset(edges), frozenset(members), tree.root)


def prune_member(tree: MulticastTree, leaving: int) -> MulticastTree:
    """Greedy leave: drop the member; strip now-useless leaf chains.

    The leaving switch stays on the tree if it still relays traffic
    (degree > 1); otherwise its dangling branch is removed leaf by leaf.
    """
    members = tree.members - {leaving}
    edges = set(tree.edges)
    keep = set(members)
    if tree.root is not None:
        keep.add(tree.root)
    node = leaving
    while node not in keep:
        incident = [e for e in edges if node in e]
        if len(incident) != 1:
            break  # still a relay (or already isolated)
        edge = incident[0]
        edges.remove(edge)
        node = edge[0] if edge[1] == node else edge[1]
    return MulticastTree(frozenset(edges), frozenset(members), tree.root)


def _cost(rows: Mapping[int, Mapping[int, float]], tree: MulticastTree) -> float:
    """``tree.cost(edge_weights(rows))``, read off the tree's own edges."""
    return sum([rows[u][v] for u, v in tree.edges])


class GreedyDynamicSteiner:
    """The incremental-vs-rebuild policy; holds no state between calls.

    When the maintained tree costs more than :attr:`REBUILD_THRESHOLD`
    times a fresh :attr:`from_scratch` tree, the fresh tree is used instead
    of the incremental result.
    """

    #: Cost ratio (maintained / fresh) above which the tree is rebuilt.
    REBUILD_THRESHOLD = 1.5
    #: The from-scratch computation: one Dijkstra, as the paper's Tc models.
    from_scratch = staticmethod(pruned_spt_steiner_tree)

    def update(
        self,
        adj: Mapping[int, Mapping[int, float]],
        previous: Optional[MulticastTree],
        members: frozenset[int],
    ) -> MulticastTree:
        """New tree for ``members`` given the previously installed tree.

        Joins/leaves relative to ``previous.members`` are applied
        incrementally; anything else (no previous tree, network change that
        broke the tree, threshold exceeded) triggers a from-scratch build.
        """
        if not members:
            return MulticastTree.empty()
        if previous is None or not previous.members:
            return self.from_scratch(adj, members)
        # The plain row table of a cached image: its lookups skip the
        # mapping protocol.
        rows = getattr(adj, "rows", adj)
        # Images are symmetric (the LSDB's two-way check), so a tree edge
        # is read from one side and priced from it: no whole-image pass.
        for u, v in previous.edges:
            if v not in rows.get(u, _NO_ROW):
                # A tree link went down: incremental repair is not safe.
                return self.from_scratch(adj, members)
        tree = previous
        try:
            for gone in sorted(previous.members - members):
                tree = prune_member(tree, gone)
            for new in sorted(members - previous.members):
                tree = graft_path(rows, tree, new)
        except TreeError:
            return self.from_scratch(adj, members)
        if len(members) >= 2:
            fresh = self.from_scratch(adj, members)
            if _cost(rows, tree) > self.REBUILD_THRESHOLD * _cost(rows, fresh):
                return fresh
        return MulticastTree(tree.edges, members, tree.root)
