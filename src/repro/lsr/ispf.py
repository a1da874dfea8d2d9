"""Incremental SPF: repair a ``(dist, parent)`` tree after one link delta.

Link-state routers do not re-run Dijkstra from scratch on every LSA.
After a *single* link change they recompute only the affected subtree --
the mDT line of work (see PAPERS.md) and OSPF's iSPF both rest on the
observation that a one-edge delta leaves most of the shortest-path tree
untouched.  This module implements that repair for the canonical trees
produced by :func:`repro.lsr.spf.dijkstra_uncached`:

* unreachable nodes appear in neither map,
* ``parent[source] is None``,
* ties resolve toward the **lowest parent id** -- for every non-source
  reachable node ``x``, ``parent[x] = min{y : dist[y] + w(y, x) == dist[x]}``.

That canonical form is what makes local repair exact: after the distance
update, the correct parent of any node is recomputable from its own
neighborhood alone.  A full run also settles its nodes in ``(dist,
parent, node)`` order (the source, whose parent is None, first), and a
repair emits its dicts in that order too, so repaired results are
byte-identical to a fresh full run, iteration order included
(``benchmarks/regress.py --mode ispf`` and the Hypothesis suite in
``tests/test_ispf.py`` gate exactly that).  Images with the same content
share their solved trees (:mod:`repro.lsr.spfcache`), so a consumer may
read a tree another switch repaired where its own would have run in full.

A *weight-decrease* (or link-up) can only shorten distances: a seeded
Dijkstra from the improved endpoints relaxes the strictly-improved
region, then parents are re-canonicalized over that region, its
neighbors, and the delta endpoints (a tie can move a parent without
moving any distance).  A *weight-increase* (or link-down) can only
lengthen distances, and only for nodes whose every shortest path used
the stretched edge -- all of which live in the canonical subtree below
it.  If the edge is not a canonical tree edge, nothing changes at all;
otherwise the subtree is detached and re-attached by a Dijkstra
restricted to it, seeded from the best frontier outside.

Edge relaxations (edges examined) are counted into
:data:`repro.lsr.spf.RELAX_COUNTER`, the currency in which the bench
gate verifies the >= 2x win over full recomputation.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.lsr import spf
from repro.obs import tracer as obs_tracer

Adjacency = Mapping[int, Mapping[int, float]]

#: One image change ``(u, v, old_weight, new_weight)``.  ``None`` on a side
#: means the edge is absent before/after the transition; ``(w, w)`` is a
#: recorded event that left the view unchanged (e.g. a down-link flap seen
#: through an include-down view).
LinkDelta = Tuple[int, int, Optional[float], Optional[float]]

#: Longest delta sequence worth carrying through incremental SPF; past
#: this, a full Dijkstra is cheaper than the chain of repairs.  This is
#: **one** constant shared by both ends of the pipeline: producers
#: (:class:`repro.lsr.lsdb.LinkStateDatabase`) cap how many pending
#: deltas they accumulate between image rebuilds, and the consumer
#: (:class:`repro.lsr.spfcache.SpfCache`) caps how many superseded
#: generations it keeps repairable.  They must agree -- with two
#: independently defined caps, a producer tracking more deltas than the
#: cache replays silently drops the excess past the repair horizon (the
#: historical bug), or tracks fewer and wastes repairable history.
MAX_REPAIR_CHAIN = 8

SsspResult = Tuple[Dict[int, float], Dict[int, Optional[int]]]


def repair_sssp(
    adj: Adjacency,
    source: int,
    dist_old: Dict[int, float],
    parent_old: Dict[int, Optional[int]],
    delta: LinkDelta,
) -> Optional[SsspResult]:
    """Repair one source's tree onto the post-delta adjacency ``adj``.

    ``dist_old`` / ``parent_old`` are the canonical results on the
    pre-delta image; ``adj`` must already reflect ``delta``.  Returns a
    ``(dist, parent)`` pair byte-identical to
    ``dijkstra_uncached(adj, source)`` -- possibly the *same* objects when
    nothing changed, so callers must keep treating results as immutable --
    or ``None`` when the inputs are inconsistent and the caller should
    fall back to a full run.
    """
    u, v, old_w, new_w = delta
    if old_w == new_w:
        return dist_old, parent_old
    tracer = obs_tracer.TRACER
    if not tracer.enabled:
        return _repair_body(adj, source, dist_old, parent_old, u, v, old_w, new_w)
    with tracer.span("ispf_repair", cat="spf", source=source, nodes=len(adj)):
        return _repair_body(adj, source, dist_old, parent_old, u, v, old_w, new_w)


def repair_sssp_chain(
    adj: Adjacency,
    source: int,
    dist_old: Dict[int, float],
    parent_old: Dict[int, Optional[int]],
    deltas: Tuple[LinkDelta, ...],
) -> Optional[SsspResult]:
    """Repair one source's tree through a *sequence* of link deltas.

    ``adj`` is the adjacency after **all** of ``deltas`` (in order); the
    intermediate adjacencies are reconstructed by reverting the later
    deltas one edge at a time, so each single-link repair sees exactly
    the image it transformed.  This is what lets an LSDB that absorbed
    several installs between image rebuilds still repair instead of
    recomputing.
    """
    if not deltas:
        return dist_old, parent_old
    if len(deltas) == 1:
        return repair_sssp(adj, source, dist_old, parent_old, deltas[0])
    # states[i] is the adjacency after deltas[:i+1]; walk backward from
    # the final image, undoing one delta per step.
    states: List[Adjacency] = [adj]
    current = adj
    for u, v, old_w, _ in reversed(deltas[1:]):
        current = _with_edge(current, u, v, old_w)
        states.append(current)
    states.reverse()
    dist, parent = dist_old, parent_old
    for state, delta in zip(states, deltas):
        repaired = repair_sssp(state, source, dist, parent, delta)
        if repaired is None:  # pragma: no cover - inconsistent chain
            return None
        dist, parent = repaired
    return dist, parent


def _with_edge(
    adj: Adjacency, u: int, v: int, w: Optional[float]
) -> Adjacency:
    """Copy of ``adj`` with the undirected edge ``u--v`` set to ``w``
    (removed when ``w`` is None).  Only the two touched rows are copied."""
    out: Dict[int, Mapping[int, float]] = dict(adj)
    for a, b in ((u, v), (v, u)):
        row = dict(out.get(a, {}))
        if w is None:
            row.pop(b, None)
        else:
            row[b] = w
        out[a] = row
    return out


def _repair_body(
    adj: Adjacency,
    source: int,
    dist_old: Dict[int, float],
    parent_old: Dict[int, Optional[int]],
    u: int,
    v: int,
    old_w: Optional[float],
    new_w: Optional[float],
) -> Optional[SsspResult]:
    if new_w is not None and (old_w is None or new_w < old_w):
        return _repair_decrease(adj, source, dist_old, parent_old, u, v, new_w)
    return _repair_increase(adj, source, dist_old, parent_old, u, v)


def _repair_decrease(
    adj: Adjacency,
    source: int,
    dist_old: Dict[int, float],
    parent_old: Dict[int, Optional[int]],
    u: int,
    v: int,
    w: float,
) -> Optional[SsspResult]:
    """Weight decrease / link up: distances can only shrink.

    Any newly-shorter path crosses the improved edge, so seeding a
    lazy-deletion Dijkstra with the two cross-edge candidates reaches the
    whole strictly-improved region and nothing else.
    """
    dist = dict(dist_old)
    parent = dict(parent_old)
    relaxed = 2  # the two seed examinations of the changed edge
    heap: List[Tuple[float, int, int]] = []
    for a, b in ((u, v), (v, u)):
        da = dist.get(a)
        if da is None:
            continue
        cand = da + w
        db = dist.get(b)
        if db is None or cand < db:
            heapq.heappush(heap, (cand, a, b))
    changed: Set[int] = set()
    while heap:
        d, via, x = heapq.heappop(heap)
        dx = dist.get(x)
        if dx is not None and dx <= d:
            continue  # lazy deletion: a better entry already settled x
        dist[x] = d
        parent[x] = via  # provisional; canonicalized below
        changed.add(x)
        nbrs = adj.get(x, {})
        relaxed += len(nbrs)
        for y, wy in nbrs.items():
            cand = d + wy
            dy = dist.get(y)
            if dy is None or cand < dy:
                heapq.heappush(heap, (cand, x, y))
    # Distances outside ``changed`` kept their value, but a parent can
    # still move where the predecessor *set* moved: next to an improved
    # node, or across the re-weighted edge itself (a new exact tie).
    recheck = set(changed)
    for x in changed:
        recheck.update(adj.get(x, {}))
    if u in dist:
        recheck.add(u)
    if v in dist:
        recheck.add(v)
    fixed = _fix_parents(adj, source, dist, parent, recheck)
    if fixed is None:  # pragma: no cover - inconsistent inputs
        return None
    spf.RELAX_COUNTER.count += relaxed + fixed
    return _settle_order(dist, parent)


def _repair_increase(
    adjacency: Adjacency,
    source: int,
    dist_old: Dict[int, float],
    parent_old: Dict[int, Optional[int]],
    u: int,
    v: int,
) -> Optional[SsspResult]:
    """Weight increase / link down: only the canonical subtree can move.

    A node's distance grows only if *every* shortest path used the edge,
    which forces the edge to be the parent edge of ``u`` or ``v`` in the
    canonical tree.  Otherwise the predecessor relation -- hence every
    distance and every lowest-id parent -- is untouched and the old
    results are returned as-is.
    """
    if parent_old.get(v) == u:
        child = v
    elif parent_old.get(u) == v:
        child = u
    else:
        return dist_old, parent_old
    # Detach the canonical subtree below ``child``.
    children: Dict[int, List[int]] = {}
    for x, p in parent_old.items():
        if p is not None:
            children.setdefault(p, []).append(x)
    affected: Set[int] = {child}
    stack = [child]
    while stack:
        for c in children.get(stack.pop(), ()):
            if c not in affected:
                affected.add(c)
                stack.append(c)
    dist = {x: d for x, d in dist_old.items() if x not in affected}
    parent = {x: p for x, p in parent_old.items() if x not in affected}
    # Seed with the best re-attachment frontier: every edge from a kept
    # node into the subtree (including the stretched edge, at its new
    # weight, when it survived in ``adjacency``).
    relaxed = 0
    heap: List[Tuple[float, int, int]] = []
    for x in affected:
        nbrs = adjacency.get(x, {})
        relaxed += len(nbrs)
        for y, wy in nbrs.items():
            dy = dist.get(y)
            if dy is not None:
                heapq.heappush(heap, (dy + wy, y, x))
    while heap:
        d, via, x = heapq.heappop(heap)
        if x in dist:
            continue
        dist[x] = d
        parent[x] = via  # provisional; canonicalized below
        nbrs = adjacency.get(x, {})
        relaxed += len(nbrs)
        for y, wy in nbrs.items():
            if y in affected and y not in dist:
                heapq.heappush(heap, (d + wy, x, y))
    # Subtree nodes never popped are now unreachable and stay absent.
    # Parents outside the subtree cannot move (their predecessors kept
    # their distances and the only re-weighted edge leads into the
    # subtree), so canonicalizing the re-attached nodes suffices.
    recheck = {x for x in affected if x in dist}
    fixed = _fix_parents(adjacency, source, dist, parent, recheck)
    if fixed is None:  # pragma: no cover - inconsistent inputs
        return None
    spf.RELAX_COUNTER.count += relaxed + fixed
    return _settle_order(dist, parent)


def _settle_order(
    dist: Dict[int, float], parent: Dict[int, Optional[int]]
) -> SsspResult:
    """``dist`` and ``parent`` rebuilt in a full run's settle order.

    :func:`repro.lsr.spf.dijkstra_uncached` pops ``(dist, parent, node)``
    heap entries in increasing order and settles each node at its first
    pop, so its dicts iterate sorted by that key, with the source (parent
    None, ranked -1) first.
    """
    order = sorted(
        dist,
        key=lambda x: (dist[x], -1 if parent[x] is None else parent[x], x),
    )
    return {x: dist[x] for x in order}, {x: parent[x] for x in order}


def _fix_parents(
    adjacency: Adjacency,
    source: int,
    dist: Dict[int, float],
    parent: Dict[int, Optional[int]],
    nodes: Set[int],
) -> Optional[int]:
    """Recompute canonical (lowest-id exact-predecessor) parents in place.

    Returns the number of edges examined, or ``None`` when a reachable
    node has no exact predecessor -- impossible for consistent inputs,
    and the signal for the caller to fall back to a full run.
    """
    relaxed = 0
    for x in nodes:
        if x == source or x not in dist:
            continue
        dx = dist[x]
        best: Optional[int] = None
        nbrs = adjacency.get(x, {})
        relaxed += len(nbrs)
        for y, wy in nbrs.items():
            dy = dist.get(y)
            if dy is not None and dy + wy == dx and (best is None or y < best):
                best = y
        if best is None:  # pragma: no cover - inconsistent inputs
            return None
        parent[x] = best
    return relaxed
