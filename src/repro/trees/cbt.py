"""Core selection and core-based trees (the CBT baseline's topology).

"The topology of a CBT connection is defined by the unicast paths between
the core and the group members" (Section 5).  :func:`select_core` picks the
core; :func:`core_based_tree` unions the unicast shortest paths from every
member to it.

The paper criticizes CBT's core-selection problem ("a good choice depends
on the locations of connection members"); both a member-aware *median*
strategy and the naive fixed-core strategy are provided so the benchmark
suite can quantify that sensitivity.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.lsr import spf
from repro.trees.base import MulticastTree, TreeError, canonical_edge


def select_core(
    adj: Mapping[int, Mapping[int, float]],
    members: Iterable[int],
    strategy: str = "member-median",
) -> int:
    """Choose the core switch for a receiver-only MC.

    Strategies:

    * ``member-median``: the switch minimizing the sum of shortest-path
      distances to all members (1-median restricted to reachable switches).
    * ``first-member``: the smallest member id (a naive fixed choice, for
      the sensitivity study).
    """
    members = sorted(set(members))
    if not members:
        raise TreeError("cannot select a core for an empty member set")
    if strategy == "first-member":
        return members[0]
    if strategy != "member-median":
        raise ValueError(f"unknown core selection strategy {strategy!r}")
    # Distances from each member to everything (members are few; the
    # network image is shared by all switches so the choice is consistent).
    per_member = {}
    for m in members:
        dist, _ = spf.dijkstra(adj, m)
        per_member[m] = dist
    candidates = sorted(set.intersection(*(set(d) for d in per_member.values())))
    if not candidates:
        raise TreeError("no switch reaches every member")
    return min(candidates, key=lambda c: (sum(per_member[m][c] for m in members), c))


def core_based_tree(
    adj: Mapping[int, Mapping[int, float]],
    members: Iterable[int],
    core: int,
) -> MulticastTree:
    """Union of unicast shortest paths from every member to the core."""
    members = frozenset(members)
    dist, parent = spf.dijkstra(adj, core)
    missing = members - dist.keys()
    if missing:
        raise TreeError(f"members unreachable from core {core}: {sorted(missing)}")
    edges = set()
    for m in members:
        node = m
        while parent[node] is not None:
            edge = canonical_edge(node, parent[node])  # type: ignore[arg-type]
            if edge in edges:
                break
            edges.add(edge)
            node = parent[node]  # type: ignore[assignment]
    return MulticastTree.build(edges, members, root=core)
