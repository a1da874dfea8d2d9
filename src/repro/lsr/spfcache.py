"""LSDB-generation-keyed SPF result cache.

D-GMC's cost model charges *one* topology computation per event, yet the
substrate underneath used to re-run full Dijkstra from scratch on every
``shortest_path`` / ``routing_table`` / tree computation -- even when the
link-state image was unchanged.  Link-state routers avoid exactly that
cost by reusing SPF results until the next LSA invalidates them (see the
mDT line of work in PAPERS.md); this module gives the reproduction the
same property.

:class:`SpfCache` wraps an adjacency mapping ``{node: {neighbor: weight}}``
and *is itself* such a mapping, so it can flow unchanged through every
consumer of a network image (tree algorithms, routing tables, the
dataplane, the baselines).  On top of the mapping protocol it memoizes

* :meth:`sssp` -- the ``(dist, parent)`` pair of one full Dijkstra run,
* :meth:`routing_table` -- the OSPF next-hop table derived from it,
* :meth:`eccentricity` and :meth:`shortest_path` -- cheap derivations.

:mod:`repro.lsr.spf` duck-types on these methods: ``spf.dijkstra(adj, s)``
delegates to ``adj.sssp(s)`` whenever ``adj`` is a cache, so callers never
change.  Producers -- :class:`~repro.lsr.lsdb.LinkStateDatabase` and
:class:`~repro.topo.graph.Network` -- hand out cache-wrapped images and
replace them wholesale on invalidation (LSA install, link up/down), which
preserves snapshot semantics: a computation that captured the old image
keeps computing on the old image.

Memoized results are shared; callers must treat the returned ``dist`` /
``parent`` mappings as immutable (every in-tree consumer already does).
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.lsr import ispf as _ispf
from repro.lsr.spf import (
    RELAX_COUNTER,
    RUN_COUNTER,
    dijkstra_uncached,
    first_hop_table,
)
from repro.obs import attach
from repro.obs.metrics import REGISTRY as _GLOBAL_REGISTRY

_enabled = True
_ispf_on = True

#: Longest chain of single-link repairs applied before giving up and
#: running full Dijkstra; also bounds how many superseded generations a
#: live cache can keep reachable.  One shared constant with the
#: producer-side pending-delta cap -- see
#: :data:`repro.lsr.ispf.MAX_REPAIR_CHAIN` for why they must agree.
_MAX_REPAIR_CHAIN = _ispf.MAX_REPAIR_CHAIN


def set_enabled(flag: bool) -> bool:
    """Globally enable/disable cache wrapping; returns the previous value.

    When disabled, image producers hand out plain dicts, so every SPF
    query pays a full Dijkstra -- the pre-cache behavior.  Used by
    ``benchmarks/regress.py`` to prove cached and uncached runs produce
    byte-identical topologies.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def enabled() -> bool:
    return _enabled


@contextmanager
def disabled():
    """Context manager: run a block with cache wrapping turned off."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


def set_ispf_enabled(flag: bool) -> bool:
    """Globally enable/disable incremental SPF repair; returns the previous
    value.  When disabled, every cache miss pays a full Dijkstra even if a
    single-link delta from the previous generation is known -- the
    pre-ISPF behavior.  ``benchmarks/regress.py --mode ispf`` flips this
    to prove repaired and recomputed trees are byte-identical.
    """
    global _ispf_on
    previous = _ispf_on
    _ispf_on = bool(flag)
    return previous


def ispf_enabled() -> bool:
    return _ispf_on


@contextmanager
def ispf_disabled():
    """Context manager: run a block with incremental SPF repair off."""
    previous = set_ispf_enabled(False)
    try:
        yield
    finally:
        set_ispf_enabled(previous)


@dataclass
class CacheStats:
    """Process-wide SPF cache counters; the one instance is
    :data:`GLOBAL_STATS`.  Each field is written at exactly one site per
    event kind and read only by :func:`collect_spf` (and the frozen
    ``benchmarks/e2e``, by name)."""

    hits: int = 0
    misses: int = 0
    #: Image generations discarded (LSA installs, link state changes);
    #: written by the producers, LinkStateDatabase and Network.
    invalidations: int = 0
    #: Full Dijkstra executions performed on behalf of a cache.
    full_runs: int = 0
    #: Misses answered by incremental repair instead of a full Dijkstra.
    ispf_repairs: int = 0
    #: Misses where repair history existed but ISPF still fell back to a
    #: full run (multi-link delta, broken chain, or source never solved).
    ispf_full_fallbacks: int = 0


GLOBAL_STATS = CacheStats()


@_GLOBAL_REGISTRY.register_collector
def collect_spf(reg) -> None:
    """Emit every ``spf_*`` sample.  Registered here on the process-wide
    registry and by :func:`repro.obs.attach.attach_network_metrics` on
    each per-network one; both read the same process-wide store, so a
    per-network delta is exact as long as one network runs at a time."""
    reg.counter(
        attach.SPF_HITS, "SPF cache hits"
    ).set_total(GLOBAL_STATS.hits)
    reg.counter(
        attach.SPF_MISSES, "SPF cache misses"
    ).set_total(GLOBAL_STATS.misses)
    reg.counter(
        attach.SPF_INVALIDATIONS,
        "SPF cache image invalidations (LSA installs, link state changes)",
    ).set_total(GLOBAL_STATS.invalidations)
    reg.counter(
        attach.SPF_FULL_RUNS,
        "full Dijkstra executions performed by caches",
    ).set_total(GLOBAL_STATS.full_runs)
    reg.counter(
        attach.SPF_ISPF_REPAIRS,
        "cache misses answered by incremental SPF repair",
    ).set_total(GLOBAL_STATS.ispf_repairs)
    reg.counter(
        attach.SPF_ISPF_FALLBACKS,
        "cache misses that fell back to full Dijkstra despite repair "
        "history (multi-link delta or unsolved source)",
    ).set_total(GLOBAL_STATS.ispf_full_fallbacks)
    reg.counter(
        attach.DIJKSTRA_RUNS,
        "full Dijkstra executions (cached misses and uncached calls)",
    ).set_total(RUN_COUNTER.count)
    reg.counter(
        attach.SPF_RELAXATIONS,
        "edge relaxations, by full Dijkstra runs and ISPF repairs",
    ).set_total(RELAX_COUNTER.count)


class SpfCache(MappingABC):
    """An adjacency mapping with memoized SPF results.

    Instances are immutable snapshots of one network image: producers
    build a *new* cache whenever the image changes, rather than mutating
    an existing one.
    """

    __slots__ = (
        "_adj",
        "generation",
        "_sssp",
        "_tables",
        "_dags",
        "_ecc",
        "_prev",
        "_delta",
        "_had_history",
    )

    def __init__(
        self,
        adj: Mapping[int, Mapping[int, float]],
        generation: int = 0,
        prev: Optional[object] = None,
        delta: Optional[Tuple[_ispf.LinkDelta, ...]] = None,
    ) -> None:
        self._adj = adj
        #: The producer's image version this snapshot was built from.
        self.generation = generation
        self._sssp: Dict[int, Tuple[Dict[int, float], Dict[int, Optional[int]]]] = {}
        self._tables: Dict[int, Dict[int, int]] = {}
        self._dags: Dict[int, Dict[int, tuple]] = {}
        self._ecc: Dict[int, float] = {}
        #: The superseded generation plus the ordered link deltas leading
        #: here, when the producer knows them -- the ISPF repair chain.  A
        #: ``prev`` without a usable ``delta`` only marks that history
        #: existed (for fallback accounting) and is not retained.
        usable = bool(delta) and isinstance(prev, SpfCache)
        self._prev: Optional[SpfCache] = prev if usable else None
        self._delta = delta if usable else None
        self._had_history = prev is not None
        if self._prev is not None:
            self._trim_chain()

    def _trim_chain(self) -> None:
        """Cap the repair chain so superseded images can be collected."""
        depth = 1
        node = self._prev
        while node is not None and node._prev is not None:
            depth += 1
            if depth >= _MAX_REPAIR_CHAIN:
                node._prev = None
                node._delta = None
                return
            node = node._prev

    # -- mapping protocol (read-only view of the wrapped adjacency) --------

    def __getitem__(self, node: int) -> Mapping[int, float]:
        return self._adj[node]

    def __iter__(self) -> Iterator[int]:
        return iter(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SpfCache):
            return dict(self._adj) == dict(other._adj)
        if isinstance(other, MappingABC):
            return dict(self._adj) == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:  # Mapping sets __hash__ = None otherwise
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SpfCache(nodes={len(self._adj)}, gen={self.generation}, "
            f"sssp={len(self._sssp)})"
        )

    # -- memoized SPF results ----------------------------------------------

    def sssp(
        self, source: int
    ) -> Tuple[Dict[int, float], Dict[int, Optional[int]]]:
        """Memoized single-source shortest paths (``spf.dijkstra``).

        On a miss, when this generation descends from a superseded one by
        a chain of known single-link deltas and that ancestor already
        solved ``source``, the old tree is *repaired* (see
        :mod:`repro.lsr.ispf`) instead of re-running full Dijkstra;
        otherwise -- and whenever ISPF is globally disabled -- the miss
        pays a full run, exactly as before.
        """
        entry = self._sssp.get(source)
        if entry is not None:
            GLOBAL_STATS.hits += 1
            return entry
        entry = self._repair_from_chain(source) if _ispf_on else None
        GLOBAL_STATS.misses += 1
        if entry is not None:
            GLOBAL_STATS.ispf_repairs += 1
        else:
            if _ispf_on and self._had_history:
                GLOBAL_STATS.ispf_full_fallbacks += 1
            GLOBAL_STATS.full_runs += 1
            entry = dijkstra_uncached(self._adj, source)
        self._sssp[source] = entry
        return entry

    def prewarm(self, sources) -> int:
        """Solve SSSP for every source not yet memoized; returns how many
        solves ran (each one a counted miss, later reads are hits)."""
        pending = [s for s in sources if s not in self._sssp]
        for s in pending:
            self.sssp(s)
        return len(pending)

    def _repair_from_chain(
        self, source: int
    ) -> Optional[Tuple[Dict[int, float], Dict[int, Optional[int]]]]:
        """Walk superseded generations for a solved tree and repair it
        forward through each intervening delta; None when impossible."""
        steps: list = []
        node = self
        while node._prev is not None and len(steps) < _MAX_REPAIR_CHAIN:
            steps.append((node._adj, node._delta))
            node = node._prev
            base = node._sssp.get(source)
            if base is None:
                continue
            dist, parent = base
            for adj_i, delta_i in reversed(steps):
                repaired = _ispf.repair_sssp_chain(
                    adj_i, source, dist, parent, delta_i
                )
                if repaired is None:  # pragma: no cover - inconsistent chain
                    return None
                dist, parent = repaired
            return dist, parent
        return None

    def routing_table(self, source: int) -> Dict[int, int]:
        """Memoized OSPF-style next-hop table from ``source``."""
        table = self._tables.get(source)
        if table is not None:
            GLOBAL_STATS.hits += 1
            return table
        dist, parent = self.sssp(source)
        table = first_hop_table(source, dist, parent)
        self._tables[source] = table
        return table

    def dag(self, source: int) -> Dict[int, tuple]:
        """Memoized per-destination next-hop DAG (``spf.next_hop_dag``).

        The per-neighbor SSSP solves the DAG derivation needs go through
        :meth:`sssp`, so on one image they are shared with every other
        consumer (routing tables, tree computations, other sources' DAGs).
        """
        dag = self._dags.get(source)
        if dag is not None:
            GLOBAL_STATS.hits += 1
            return dag
        from repro.lsr import spf as _spf

        dag = _spf.dag_body(self, source)
        self._dags[source] = dag
        return dag

    def eccentricity(self, node: int) -> float:
        """Memoized largest shortest-path distance from ``node``."""
        value = self._ecc.get(node)
        if value is not None:
            GLOBAL_STATS.hits += 1
            return value
        dist, _ = self.sssp(node)
        value = max(dist.values()) if dist else 0.0
        self._ecc[node] = value
        return value

    def shortest_path(self, source: int, target: int) -> Optional[list]:
        """Shortest node path, reconstructed from the memoized SSSP.

        Repeated ``(source, *)`` queries on one image solve the SSSP once
        -- previously every query paid a full Dijkstra.
        """
        dist, parent = self.sssp(source)
        if target not in dist:
            return None
        path = [target]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path


def wrap_image(
    adj: Dict[int, Dict[int, float]],
    generation: int = 0,
    prev: Optional[object] = None,
    delta: Optional[Tuple[_ispf.LinkDelta, ...]] = None,
):
    """Wrap a freshly built image in a cache, honoring the global switch.

    Producers that know *how* the image changed pass the superseded
    ``prev`` snapshot plus the ordered link ``delta`` sequence leading
    here, making the new generation repairable by incremental SPF.
    ``prev`` with ``delta=None`` records that history existed but the
    change was too large to track (fallback accounting only).
    """
    if not _enabled:
        return adj
    return SpfCache(adj, generation=generation, prev=prev, delta=delta)
