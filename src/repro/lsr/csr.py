"""Flat-array CSR graph core: index-based SPF at n=10k.

The dict-of-dict adjacency that :mod:`repro.lsr.spf` computes on is
pleasant to produce (it *is* the LSDB image) but its per-node hash
lookups dominate SPF cost at large n.  This module compiles one network
image into compressed-sparse-row form -- a node-index remap plus three
flat arrays -- and solves single-source shortest paths on it:

* ``nodes`` / ``index_of`` -- the sorted node-id remap (monotone, so
  index order equals id order and tie-breaks survive the remap),
* ``indptr`` / ``indices`` / ``weights`` -- the CSR rows, neighbor
  indices sorted within each row,
* ``by_src`` / ``by_dst`` -- the same edge set sorted by (dst, src),
  which is what derives canonical parents without replaying a heap.

Results are **byte-identical** to the dict core (gated by the
differential suite in ``tests/test_csr.py`` and by
``benchmarks/regress.py --mode csr``).
:func:`scipy.sparse.csgraph.dijkstra` computes the distance array in C.
Distances are bit-exact against the dict core by induction: both compute
every candidate as the IEEE-754 sum ``dist[y] + w(y, x)`` over the *same*
candidate set, and the minimum of a float set does not depend on
evaluation order.  Canonical parents (``parent[x] = min{y : dist[y] +
w(y, x) == dist[x]}`` -- the :mod:`repro.lsr.ispf` invariant) then come
from one vectorized pass over the (dst, src)-sorted edges, and the settle
order is recovered by sorting on ``(dist, parent, node)``: every exact
predecessor settles strictly earlier (weights are positive), so the dict
core's heap order *is* that sort order.

Solving yields a :class:`CsrTree` -- ``(dist, parent, settled)``
*arrays*; the dict views the rest of the tree (and every existing
caller) consumes are materialized lazily, so bulk consumers like
:meth:`SpfCache.prewarm` and the data plane pay only for the solve.

Single-link deltas (the :data:`repro.lsr.ispf.LinkDelta` sequences the
producers already track for incremental SPF) patch weights in place on
a cloned array via :meth:`CsrGraph.patched` -- no O(V+E) rebuild per
generation on churn.  Removed edges become ``inf`` slots, which the
solver treats as absent (and excludes from relaxation counts, keeping
:data:`repro.lsr.spf.RELAX_COUNTER` parity with the dict core).

See ``docs/graph-core.md`` for the layout and invalidation story.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as _np
from scipy.sparse import csr_array as _scipy_csr_array
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from repro.lsr.spf import RELAX_COUNTER

Adjacency = Mapping[int, Mapping[int, float]]

_INF = float("inf")

#: Smallest image :class:`~repro.lsr.spfcache.SpfCache` compiles a CSR
#: core for.  Below it the compile cost (an O(V+E) python loop) outweighs
#: the per-solve win for the handful of sources a churn generation
#: actually solves; the measured crossover is a few hundred nodes, so the
#: small-n simulator workloads stay on the dict core byte-for-byte AND
#: cycle-for-cycle.  Tests monkeypatch it to 0.
MIN_NODES = 256


class CsrTree:
    """One solved SSSP tree in flat-array form.

    ``dist`` (float64, ``inf`` for unreachable), ``parent`` (int32 node
    *indices*, ``-1`` for the source and unreachable nodes) and
    ``settled`` (int64 node indices in dict-core settle order) are
    shared, immutable views; :meth:`dicts` materializes -- once -- the
    ``(dist, parent)`` dict pair byte-identical to
    :func:`repro.lsr.spf.dijkstra_uncached`, including iteration order.
    """

    __slots__ = ("graph", "source", "dist", "parent", "settled", "_dicts")

    def __init__(self, graph: "CsrGraph", source: int, dist, parent, settled):
        self.graph = graph
        self.source = source
        self.dist = dist
        self.parent = parent
        self.settled = settled
        self._dicts: Optional[
            Tuple[Dict[int, float], Dict[int, Optional[int]]]
        ] = None

    def dicts(self) -> Tuple[Dict[int, float], Dict[int, Optional[int]]]:
        if self._dicts is None:
            nodes_arr = self.graph.nodes_arr
            settled = self.settled
            ids = nodes_arr[settled].tolist()
            dist_d: Dict[int, float] = dict(
                zip(ids, self.dist[settled].tolist())
            )
            parent_d: Dict[int, Optional[int]] = dict(
                zip(ids, nodes_arr[self.parent[settled]].tolist())
            )
            parent_d[self.source] = None
            self._dicts = (dist_d, parent_d)
        return self._dicts


class CsrGraph:
    """A compiled network image (see module docstring for the layout)."""

    __slots__ = (
        "nodes",
        "index_of",
        "n",
        "indptr",
        "indices",
        "weights",
        "eorder",
        "by_src",
        "by_dst",
        "nodes_arr",
        "degrees",
        "dead_out",
        "_container",
        "_by_w",
    )

    def __init__(
        self,
        nodes: List[int],
        indptr,
        indices,
        weights,
    ) -> None:
        self.nodes = nodes
        self.index_of = {u: i for i, u in enumerate(nodes)}
        self.n = len(nodes)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        esrc = _np.repeat(
            _np.arange(self.n, dtype=_np.int32), _np.diff(indptr)
        )
        # Edges sorted by (dst, src): within each dst run the first
        # exact-predecessor hit is the lowest parent id -- canonical.
        self.eorder = _np.lexsort((esrc, indices))
        self.by_dst = indices[self.eorder]
        self.by_src = esrc[self.eorder]
        self.nodes_arr = _np.asarray(nodes, dtype=_np.int64)
        self.degrees = _np.diff(indptr).astype(_np.int64)
        #: Per-node count of dead (``inf``) out-slots from weight patches;
        #: live out-degree is ``degrees - dead_out`` -- the exact count the
        #: dict core would charge to RELAX_COUNTER for a settled node.
        self.dead_out = _np.zeros(self.n, dtype=_np.int64)
        self._container = None
        self._by_w = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_adjacency(cls, adj: Adjacency) -> "CsrGraph":
        """Compile ``adj`` (``{node: {neighbor: weight}}``)."""
        universe = set(adj)
        for row in adj.values():
            universe.update(row)
        nodes = sorted(universe)
        index_of = {u: i for i, u in enumerate(nodes)}
        indptr = _np.zeros(len(nodes) + 1, dtype=_np.int32)
        idx_chunks: List[list] = []
        w_chunks: List[list] = []
        total = 0
        for i, u in enumerate(nodes):
            row = adj.get(u)
            if row:
                items = sorted((index_of[v], w) for v, w in row.items())
                total += len(items)
                idx_chunks.append([p for p, _ in items])
                w_chunks.append([w for _, w in items])
            indptr[i + 1] = total
        if idx_chunks:
            indices = _np.concatenate(
                [_np.asarray(c, dtype=_np.int32) for c in idx_chunks]
            )
            weights = _np.concatenate(
                [_np.asarray(c, dtype=_np.float64) for c in w_chunks]
            )
        else:
            indices = _np.zeros(0, dtype=_np.int32)
            weights = _np.zeros(0, dtype=_np.float64)
        return cls(nodes, indptr, indices, weights)

    def patched(
        self,
        deltas: Sequence[Tuple[int, int, Optional[float], Optional[float]]],
        new_adj: Adjacency,
    ) -> Optional["CsrGraph"]:
        """A clone of this graph with ``deltas`` applied as in-place
        weight patches, or ``None`` when a patch cannot express the
        change (new node or new edge -> rebuild from ``new_adj``).

        ``new_adj`` is the authoritative post-delta image: patched slot
        values are read from it, so a patched graph always equals
        ``from_adjacency(new_adj)``.  Absent edges become ``inf`` slots.
        """
        if len(new_adj) != len(self.nodes):
            return None
        resolved: List[Tuple[int, int, float]] = []  # (slot, src index, weight)
        for u, v, _old_w, _new_w in deltas:
            for a, b in ((u, v), (v, u)):
                slot = self._slot(a, b)
                if slot is None:
                    return None  # edge not representable in this layout
                row = new_adj.get(a)
                w = row.get(b) if row is not None else None
                resolved.append(
                    (slot, self.index_of[a], _INF if w is None else w)
                )
        weights = self.weights.copy()
        dead_out = self.dead_out.copy()
        clone = CsrGraph.__new__(CsrGraph)
        clone.nodes = self.nodes
        clone.index_of = self.index_of
        clone.n = self.n
        clone.indptr = self.indptr
        clone.indices = self.indices
        clone.weights = weights
        clone.eorder = self.eorder
        clone.by_src = self.by_src
        clone.by_dst = self.by_dst
        clone.nodes_arr = self.nodes_arr
        clone.degrees = self.degrees
        clone.dead_out = dead_out
        clone._container = None
        clone._by_w = None
        for slot, src, w in resolved:
            old = weights[slot]
            if (old == _INF) != (w == _INF):
                dead_out[src] += 1 if w == _INF else -1
            weights[slot] = w
        return clone

    def _slot(self, u: int, v: int) -> Optional[int]:
        """Flat index of the ``u -> v`` slot, or ``None`` if absent."""
        ui = self.index_of.get(u)
        vi = self.index_of.get(v)
        if ui is None or vi is None:
            return None
        lo = int(self.indptr[ui])
        hi = int(self.indptr[ui + 1])
        pos = lo + int(_np.searchsorted(self.indices[lo:hi], vi))
        if pos < hi and self.indices[pos] == vi:
            return pos
        return None

    def weight_of(self, u: int, v: int) -> Optional[float]:
        """The ``u -> v`` edge weight, ``None`` when absent (or dead)."""
        slot = self._slot(u, v)
        if slot is None:
            return None
        w = float(self.weights[slot])
        return None if w == _INF else w

    # -- solving -----------------------------------------------------------

    def _scipy_graph(self):
        if self._container is None:
            self._container = _scipy_csr_array(
                (self.weights, self.indices, self.indptr), shape=(self.n, self.n)
            )
        return self._container

    def tree(self, source: int, count: bool = True) -> CsrTree:
        """Solve one source into a :class:`CsrTree`.

        ``count=True`` charges the settled nodes' live out-degrees to
        :data:`repro.lsr.spf.RELAX_COUNTER` -- exactly the relaxations
        the dict core would record, keeping counter baselines stable.
        """
        src = self.index_of[source]
        dist = _scipy_dijkstra(
            self._scipy_graph(),
            directed=True,
            indices=src,
            return_predecessors=False,
        )
        parent, settled = self._derive(src, dist)
        if count:
            live = self.degrees[settled] - self.dead_out[settled]
            RELAX_COUNTER.count += int(live.sum())
        return CsrTree(self, source, dist, parent, settled)

    def trees(self, sources: Sequence[int], count: bool = True) -> List[CsrTree]:
        """Batched :meth:`tree`: one C solve for all sources at once."""
        if not sources:
            return []
        srcs = [self.index_of[s] for s in sources]
        dmat = _scipy_dijkstra(
            self._scipy_graph(),
            directed=True,
            indices=srcs,
            return_predecessors=False,
        )
        out = []
        for k, src in enumerate(srcs):
            dist = dmat[k]
            parent, settled = self._derive(src, dist)
            if count:
                live = self.degrees[settled] - self.dead_out[settled]
                RELAX_COUNTER.count += int(live.sum())
            out.append(CsrTree(self, sources[k], dist, parent, settled))
        return out

    def _derive(self, src: int, dist, weights=None):
        """Canonical parents + settle order from a solved distance row."""
        n = self.n
        if weights is None:
            # A graph's weight array is immutable (patches clone), so the
            # (dst, src)-ordered gather is shared across every solve.
            if self._by_w is None:
                self._by_w = self.weights[self.eorder]
            by_w = self._by_w
        else:
            by_w = weights[self.eorder]
        cand = dist[self.by_src] + by_w
        # inf == inf would pair unreachable nodes with unreachable (or
        # dead-slot) "predecessors"; exact finite sums only.
        mask = cand == dist[self.by_dst]
        mask &= _np.isfinite(cand)
        connected = bool(_np.isfinite(dist).all())
        mdst = self.by_dst[mask]
        msrc = self.by_src[mask]
        parent = _np.full(n, -1, dtype=_np.int32)
        if mdst.size:
            first = _np.empty(mdst.size, dtype=bool)
            first[0] = True
            _np.not_equal(mdst[1:], mdst[:-1], out=first[1:])
            parent[mdst[first]] = msrc[first]
        parent[src] = -1
        if connected:
            rid = _np.arange(n, dtype=_np.int64)
            prid = parent
            dr = dist
        else:
            rid = _np.flatnonzero(_np.isfinite(dist))
            prid = parent[rid]
            dr = dist[rid]
        # Settle order == sort by (dist, parent, node).  Ties in dist are
        # rare with float weights: try the single-key sort first and only
        # fall back to the packed (parent, node) tie-break when needed.
        perm = _np.argsort(dr, kind="stable")
        if (dr[perm][1:] == dr[perm][:-1]).any():
            packed = (prid.astype(_np.int64) + 1) * n + rid
            perm = _np.lexsort((packed, dr))
        settled = rid[perm]
        return parent, settled

    def masked_path(
        self, source: int, target: int, banned: Tuple[int, int]
    ) -> Optional[List[int]]:
        """Shortest ``source -> target`` node path avoiding the ``banned``
        edge; ``None`` when unreachable.  Counter-free (FRR contract:
        backup computations must not perturb SPF counter baselines), and
        byte-identical to :func:`repro.frr.backup._masked_shortest_path`:
        that walk records the canonical lowest-id parent for every node
        it settles, so reconstructing through canonical parents yields
        the same node list.
        """
        if source == target:
            return [source]
        src = self.index_of.get(source)
        tgt = self.index_of.get(target)
        if src is None or tgt is None:
            return None
        weights = self.weights
        bu, bv = banned
        s1 = self._slot(bu, bv)
        s2 = self._slot(bv, bu)
        if s1 is not None or s2 is not None:
            weights = weights.copy()
            if s1 is not None:
                weights[s1] = _INF
            if s2 is not None:
                weights[s2] = _INF
        if weights is self.weights:
            g = self._scipy_graph()
        else:
            g = _scipy_csr_array(
                (weights, self.indices, self.indptr), shape=(self.n, self.n)
            )
        dist = _scipy_dijkstra(
            g, directed=True, indices=src, return_predecessors=False
        )
        if not _np.isfinite(dist[tgt]):
            return None
        parent, _ = self._derive(src, dist, weights=weights)
        path = []
        x = tgt
        while x != -1:
            path.append(self.nodes[x])
            x = int(parent[x])
        path.reverse()
        return path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CsrGraph(n={self.n}, edges={len(self.indices)})"
