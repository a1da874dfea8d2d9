"""Incremental (dynamic) Steiner tree maintenance.

Section 3.5: "Whenever possible, an implementation should invoke an
incremental update algorithm, which adds a tree branch to reach a new
member or removes a branch from a leaving member.  Brand-new MC topologies
are computed only when the network configuration changes adversely and/or
the present topology deviates significantly from an optimal one."

:func:`graft_path` / :func:`prune_member` implement the Imase–Waxman GREEDY
operations (Dynamic Steiner Tree Problem, SIAM J. Discrete Math 1991);
:class:`GreedyDynamicSteiner` wraps them with a from-scratch rebuild policy
based on a cost-degradation threshold.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Optional

from repro.trees.base import MulticastTree, TreeError, canonical_edge
from repro.trees.steiner import kmb_steiner_tree, pruned_spt_steiner_tree


def graft_path(
    adj: Mapping[int, Mapping[int, float]],
    tree: MulticastTree,
    new_member: int,
) -> MulticastTree:
    """Greedy join: connect ``new_member`` by its cheapest path to the tree.

    A multi-source Dijkstra from every current tree node finds the cheapest
    attachment path; its edges are grafted.  If the tree is empty the new
    member forms a trivial tree.
    """
    members = tree.members | {new_member}
    tree_nodes = tree.nodes()
    if not tree_nodes or tree_nodes == {new_member}:
        return MulticastTree(tree.edges, frozenset(members), tree.root)
    if new_member in tree_nodes:
        return MulticastTree(tree.edges, frozenset(members), tree.root)
    # Multi-source Dijkstra seeded at all tree nodes (deterministic ties).
    dist: dict[int, float] = {}
    parent: dict[int, Optional[int]] = {}
    heap = [(0.0, node, None) for node in sorted(tree_nodes)]
    heapq.heapify(heap)
    while heap:
        d, node, via = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        parent[node] = via
        if node == new_member:
            break
        for nbr, w in adj.get(node, {}).items():
            if nbr not in dist:
                heapq.heappush(heap, (d + w, nbr, node))
    if new_member not in dist:
        raise TreeError(f"member {new_member} unreachable from the tree")
    edges = set(tree.edges)
    node = new_member
    while parent[node] is not None:
        edges.add(canonical_edge(node, parent[node]))  # type: ignore[arg-type]
        node = parent[node]  # type: ignore[assignment]
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


def _cost(adj: Mapping[int, Mapping[int, float]], tree: MulticastTree) -> float:
    """``tree.cost(edge_weights(adj))``, read off the tree's own edges."""
    return sum(adj[u][v] for u, v in tree.edges)


class GreedyDynamicSteiner:
    """Stateless policy object for incremental-vs-rebuild decisions.

    ``rebuild_threshold`` r: when the maintained tree's cost exceeds
    ``r x`` the cost of a fresh heuristic tree, a from-scratch computation
    is performed instead of the incremental result.  ``r = inf`` disables
    rebuilds (pure GREEDY); ``r = 1`` rebuilds on any degradation.
    """

    def __init__(
        self,
        rebuild_threshold: float = 1.5,
        scratch: str = "pruned-spt",
    ) -> None:
        if rebuild_threshold < 1.0:
            raise ValueError("rebuild_threshold must be >= 1")
        if scratch not in ("pruned-spt", "kmb"):
            raise ValueError(f"unknown scratch algorithm {scratch!r}")
        self.rebuild_threshold = rebuild_threshold
        self.scratch = scratch
        #: Counters for the ablation study.
        self.incremental_updates = 0
        self.rebuilds = 0

    def _from_scratch(
        self, adj: Mapping[int, Mapping[int, float]], members: Iterable[int]
    ) -> MulticastTree:
        self.rebuilds += 1
        if self.scratch == "kmb":
            return kmb_steiner_tree(adj, members)
        return pruned_spt_steiner_tree(adj, members)

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
            return self._from_scratch(adj, members)
        # Images are symmetric (the LSDB's two-way check), so a tree edge
        # is read from one side and priced from it: no whole-image pass.
        if any(v not in adj.get(u, ()) for u, v in previous.edges):
            # A tree link went down: incremental repair is not safe.
            return self._from_scratch(adj, members)
        tree = previous
        try:
            for gone in sorted(previous.members - members):
                tree = prune_member(tree, gone)
            for new in sorted(members - previous.members):
                tree = graft_path(adj, tree, new)
        except TreeError:
            return self._from_scratch(adj, members)
        self.incremental_updates += 1
        if self.rebuild_threshold != float("inf") and len(members) >= 2:
            fresh = (
                kmb_steiner_tree(adj, members)
                if self.scratch == "kmb"
                else pruned_spt_steiner_tree(adj, members)
            )
            if _cost(adj, tree) > self.rebuild_threshold * _cost(adj, fresh):
                self.rebuilds += 1
                self.incremental_updates -= 1
                return fresh
        return MulticastTree(tree.edges, members, tree.root)
