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
1.5 times a fresh pruned shortest-path tree is replaced by it.  On a cached
image the test is settled, where it can be, from a lower bound on the fresh
tree's cost instead of a fresh tree (:meth:`GreedyDynamicSteiner.update`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.lsr.spfcache import SOLVED_BOUND
from repro.obs import attach
from repro.obs.metrics import REGISTRY as _GLOBAL_REGISTRY
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


@dataclass
class RebuildTests:
    """Process-wide counts of the rebuild tests :meth:`GreedyDynamicSteiner.update`
    made, by how each was settled; the one instance is :data:`REBUILD_TESTS`."""

    #: Settled by the content's lower bound: no comparison tree was built.
    bound: int = 0
    #: Settled by building the comparison tree (always, on a plain image).
    built: int = 0


REBUILD_TESTS = RebuildTests()


@_GLOBAL_REGISTRY.register_collector
def collect_rebuild_tests(reg) -> None:
    """Emit ``tree_rebuild_tests_total{settled=...}``, the way
    :func:`repro.lsr.spfcache.collect_spf` emits the ``spf_*`` samples:
    registered here on the process-wide registry and by
    :func:`repro.obs.attach.attach_network_metrics` on each per-network one."""
    text = "1.5x rebuild tests, by whether a lower bound or a built tree settled them"
    reg.counter(attach.REBUILD_TESTS, text, settled="bound").set_total(REBUILD_TESTS.bound)
    reg.counter(attach.REBUILD_TESTS, text, settled="built").set_total(REBUILD_TESTS.built)


#: The relative float slack of a bound (see :meth:`GreedyDynamicSteiner.update`).
_SLACK = 1e-9


def _carried(record: Optional[tuple], before: frozenset, members: frozenset) -> Optional[tuple]:
    """The bound record of ``members`` carried from ``before``'s
    ``record``, or ``None`` when there is none or the anchor moved.

    A record is ``(anchor, bound, scale, dist)``: ``bound`` is a lower
    bound on the fresh tree's cost, ``scale`` the sum of the magnitudes it
    was computed from, ``dist`` the anchor's memoised distances.  A join
    keeps the bound; each leaver subtracts its distance from the anchor.
    """
    if record is None:
        return None
    anchor, bound, scale, dist = record
    if min(members) != anchor:
        return None
    for gone in before - members:
        d = dist[gone]
        bound -= d
        scale += d
    return anchor, bound, scale, dist


class GreedyDynamicSteiner:
    """The incremental-vs-rebuild policy; holds no state between calls.

    When the maintained tree costs more than :attr:`REBUILD_THRESHOLD`
    times a fresh :attr:`from_scratch` tree, the fresh tree is used instead
    of the incremental result.  What a cached image proves about fresh-tree
    costs is kept in its content's ``bounds`` memo, not here.
    """

    #: Cost ratio (maintained / fresh) above which the tree is rebuilt.
    REBUILD_THRESHOLD = 1.5
    #: The from-scratch computation: one Dijkstra, as the paper's Tc models.
    #: The rebuild test's lower bound (:meth:`update`) is proven for it.
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

        **The rebuild test.**  The fresh tree is the union of the anchor's
        (``min(members)``) shortest paths to the members, read off one
        memoised solve of the image's content.  On a cached image each
        member set the test meets keeps a lower bound on that tree's cost
        in the content's ``bounds`` memo (bounded like every memo of the
        content), and the comparison tree is built only when the bound
        cannot settle the test:

        * a test that builds stores the fresh tree's exact cost;
        * a join with an unchanged anchor only adds paths to the union,
          so the previous member set's bound holds for the new one;
        * a leave removes at most the leaver's path, so the bound drops
          by the leaver's distance from the anchor (read from the solve
          the bound was taken on, kept in the record: no SPF call);
        * an anchor change, a member set with no record, or a plain
          (uncached) image builds, as every test did before.

        The maintained tree is kept unbuilt when ``cost(tree) <= 1.5 x
        (bound - slack)``, which implies ``cost(tree) <= 1.5 x
        cost(fresh)`` for the float costs too: each of ``bound`` and
        ``cost(fresh)`` is a float sum within ``k eps`` of its real value
        relative to the magnitudes summed, with ``k`` the terms summed
        (edges plus path hops) and ``eps = 2**-53``.  Because a leave
        subtracts, the slack is sized against those magnitudes
        (``scale``, every cost and distance the bound was computed from),
        not against the bound: ``slack = 1e-9 x scale`` covers any ``k``
        below ~10**6.  Otherwise the tree is built and the float
        comparison is exactly the one every test made before, so the
        result is byte-identical: a returned fresh tree always comes from
        :attr:`from_scratch`.
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
            cost = _cost(rows, tree)
            bounds = getattr(adj, "bounds", None)
            record = None
            if bounds is not None:
                record = bounds.get(members) or _carried(
                    bounds.get(previous.members), previous.members, members
                )
            fresh = None
            if record is not None and cost <= self.REBUILD_THRESHOLD * (
                record[1] - _SLACK * record[2]
            ):
                REBUILD_TESTS.bound += 1
            else:
                REBUILD_TESTS.built += 1
                fresh = self.from_scratch(adj, members)
                fresh_cost = _cost(rows, fresh)
                if bounds is not None:
                    # from_scratch has just solved from the anchor.
                    anchor = min(members)
                    record = (anchor, fresh_cost, fresh_cost, adj.solves[anchor][0])
            if record is not None:
                # remember(), inlined: a call per test would count into the
                # lsr layer what the bound saves there.
                bounds[members] = record
                if len(bounds) > SOLVED_BOUND:
                    del bounds[next(iter(bounds))]
            if fresh is not None and cost > self.REBUILD_THRESHOLD * fresh_cost:
                return fresh
        return MulticastTree(tree.edges, members, tree.root)
