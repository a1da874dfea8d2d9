"""Precomputed backup fragments and fast reroute for installed topologies.

D-GMC repairs a multicast topology only after the full
flood -> compute -> arbitrate -> install cycle converges, so a tree-edge
failure opens a blackhole window in which on-tree traffic is silently
dropped.  This module closes that window with link-protection bypass
detours in the style of the Abujassar & Ghanbari recovery schema
(PAPERS.md), computed where that schema places them -- at the node
adjacent to the protected link: at install time, each switch
precomputes, for every edge of the installed
:class:`~repro.trees.base.McTopology` *incident to itself*, a loop-free
node path that reconnects the two subtrees the edge's failure would
sever, using the next-hop DAGs the mDT-style
:func:`repro.lsr.spf.next_hop_dag` extraction derives from the SPF runs
already cached in :class:`~repro.lsr.spfcache.SpfCache`.  The two
endpoints of an edge hold the same fragment; interior detour switches
and switches the tree does not touch hold none, because only the switch
that detects the failure of its own link can ever activate one.

The detour is a *tunnel*: interior detour switches need no multicast
state -- the data plane rides the precomputed node path hop by hop and
resumes normal tree forwarding at the far endpoint of the failed edge.
Activation is purely local (the detecting switch flips the fragment on
in O(1), before any LSA floods); the normal D-GMC repair cycle later
reconciles -- when the re-proposed tree installs, the active backup is
retired and fragments are recomputed against the new topology.  A plan
is therefore as old as the last install: a link failure elsewhere that
lands on a detour before the protected edge fails leaves that edge
unprotected until the next install (:func:`detour_is_live` drops; there
is no nested FRR).  None of this state enters
:meth:`~repro.core.state.McState.canonical` or the wire-level tree
encoding, so agreement and byte-identity invariants are untouched by
construction: a run that activated FRR converges to the same installed
trees as one that never did.

Bridge edges (whose removal disconnects the underlying graph) have no
detour and get no fragment -- their failure blackholes until the repair
cycle converges, exactly as before.

The detour search runs the one Dijkstra loop, :func:`repro.lsr.spf.search`,
over the image's plain rows with the protected edge masked out, stopped at
the far endpoint.  It never goes through ``spf.dijkstra_uncached`` or the
image's memos, so ``spf.RUN_COUNTER`` and the cache counters the benchmark
gates pin stay bit-identical when FRR is off, and FRR-on runs only add its
own deterministic work.

A detour is a function of the image's content and the edge, so it is
memoised in the image's ``detours`` dict, which
:class:`~repro.lsr.spfcache.SpfCache` shares across every image of the
same content in a deployment: both endpoints of an edge, and every later
image with that content, reuse one :class:`BackupFragment` object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.lsr import spf

__all__ = [
    "BackupFragment",
    "BackupPlan",
    "EMPTY_PLAN",
    "compute_backup_plan",
    "detour_delay",
    "detour_is_live",
    "path_cost",
]


@dataclass(frozen=True)
class BackupFragment:
    """One precomputed detour protecting one tree edge.

    ``edge`` is the protected tree edge in canonical (sorted) form;
    ``path`` is the loop-free detour node path from ``edge[0]`` to
    ``edge[1]`` that avoids the edge itself.  Links are undirected, so a
    switch detecting the failure at the ``edge[1]`` end rides the
    reversed path.  ``cost`` is the summed link weight of the detour in
    the image it was computed against (diagnostic only; the data plane
    re-prices hops against the live network at forwarding time).
    """

    edge: Tuple[int, int]
    path: Tuple[int, ...]
    cost: float

    @property
    def span(self) -> int:
        """Detour length in hops (the TTL the tunnel consumes)."""
        return len(self.path) - 1

    def path_from(self, endpoint: int) -> Tuple[int, ...]:
        """The detour node path oriented to start at ``endpoint``."""
        if endpoint == self.path[0]:
            return self.path
        if endpoint == self.path[-1]:
            return tuple(reversed(self.path))
        raise ValueError(
            f"{endpoint} is not an endpoint of fragment {self.edge}"
        )


@dataclass(frozen=True)
class BackupPlan:
    """The fragments one switch holds for one installed topology: those
    protecting the tree edges incident to it.

    ``uncovered`` lists its incident tree edges no loop-free detour
    exists for (bridges of the network image) -- their failures blackhole
    until the D-GMC repair cycle converges, and the soak gates account
    them separately.
    """

    fragments: Tuple[BackupFragment, ...] = ()
    uncovered: Tuple[Tuple[int, int], ...] = ()

    def fragment_for(self, u: int, v: int) -> Optional[BackupFragment]:
        edge = (u, v) if u <= v else (v, u)
        for fragment in self.fragments:
            if fragment.edge == edge:
                return fragment
        return None

    def covers(self, u: int, v: int) -> bool:
        return self.fragment_for(u, v) is not None


#: The plan of a switch no tree edge touches; frozen, so one serves all.
EMPTY_PLAN = BackupPlan()


def _path(
    rows: Mapping[int, Mapping[int, float]], source: int, target: int
) -> Optional[List[int]]:
    """Shortest ``source -> target`` node path over plain ``rows``, or
    None: :func:`repro.lsr.spf.search` stopped at the target, uncounted."""
    _, parent = spf.search(rows, source, target)
    return spf.path_to(parent, target) if target in parent else None


def path_cost(image: Mapping[int, Mapping[int, float]], path) -> float:
    """Summed link weight of a node ``path`` in ``image``, left to right;
    a link the image does not hold counts ``0.0``."""
    rows = getattr(image, "rows", image)
    cost = 0.0
    for a, b in zip(path, path[1:]):
        cost += rows.get(a, {}).get(b, 0.0)
    return cost


def _detour(
    image: Mapping[int, Mapping[int, float]], u: int, v: int
) -> Optional[BackupFragment]:
    """The loop-free detour ``u ~> v`` avoiding edge ``(u, v)``.

    DAG-first: when ``u`` has a loop-free alternate first hop toward
    ``v`` in its next-hop DAG (any DAG entry other than ``v`` itself),
    the detour is that hop followed by its shortest path to ``v`` -- the
    LFA downstream criterion guarantees this tail cannot revisit ``u``,
    hence cannot use the protected edge.  Only when no alternate exists
    does the search run over the image's rows with the edge masked out
    (None for bridges).  Both searches read the plain rows, not the
    cached image, and stop at ``v``.
    """
    rows = getattr(image, "rows", image)
    path: Optional[List[int]] = None
    alternates = [n for n in spf.next_hop_dag(image, u).get(v, ()) if n != v]
    if alternates:
        tail = _path(rows, alternates[0], v)
        if tail is not None and u not in tail:
            path = [u] + tail
    if path is None:
        masked = dict(rows)
        for a, b in ((u, v), (v, u)):
            masked[a] = row = dict(rows.get(a, {}))
            row.pop(b, None)
        path = _path(masked, u, v)
    if path is None:
        return None
    return BackupFragment(edge=(u, v), path=tuple(path), cost=path_cost(rows, path))


def compute_backup_plan(topology, image, at: int) -> BackupPlan:
    """Precompute the fragments switch ``at`` can activate: one per edge
    of the installed topology incident to it.

    ``image`` is ``at``'s network image (a plain adjacency mapping or an
    :class:`~repro.lsr.spfcache.SpfCache`), read at install time.  A
    fragment is only ever activated by a switch detecting the failure of
    its own incident link, so no switch plans for an edge it does not
    touch; and because installs are arbitrated to identical topologies
    over identical images, the two endpoints of an edge derive the same
    fragment -- always oriented along the canonical (sorted) edge --
    without coordinating.  A switch with no incident tree edge gets an
    empty plan and never reads ``image``.  A cached image memoises each
    edge's detour (module docstring); a plain one recomputes it.
    """
    detours = getattr(image, "detours", {})
    fragments: List[BackupFragment] = []
    uncovered: List[Tuple[int, int]] = []
    for u, v in sorted(topology.all_edges()):
        if at != u and at != v:
            continue
        if (u, v) not in detours:
            detours[(u, v)] = _detour(image, u, v)
        fragment = detours[(u, v)]
        if fragment is None:
            uncovered.append((u, v))
        else:
            fragments.append(fragment)
    return BackupPlan(fragments=tuple(fragments), uncovered=tuple(uncovered))


def detour_delay(fragment: BackupFragment, endpoint: int, hop_cost) -> float:
    """Total data-plane delay of riding the detour from ``endpoint``.

    Summed left-to-right over the oriented path with ``hop_cost(a, b)``
    per link.  Both forwarding engines add this one sum as a single hop
    (the reference schedules it, the batched engine's template chains
    fold it), so they stamp bit-identical delivery timestamps.
    """
    delay = 0.0
    path = fragment.path_from(endpoint)
    for a, b in zip(path, path[1:]):
        delay += hop_cost(a, b)
    return delay


def detour_is_live(fragment: BackupFragment, net) -> bool:
    """True when every link of the detour is currently up on ``net``.

    A second failure landing on the detour itself is not re-protected
    (no nested FRR); the packet then drops exactly as without FRR.
    """
    for a, b in zip(fragment.path, fragment.path[1:]):
        if not net.has_link(a, b) or not net.link(a, b).up:
            return False
    return True
