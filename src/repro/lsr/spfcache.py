"""Per-image SPF result cache, shared by image content.

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
* :meth:`dag` -- the next-hop DAG fast reroute picks detours from,
* :meth:`components` -- the connected-component labels of the image, which
  the tree algorithms partition members by.

:mod:`repro.lsr.spf` duck-types on these methods: ``spf.dijkstra(adj, s)``
delegates to ``adj.sssp(s)`` and ``spf.component_labels(adj)`` to
``adj.components()`` whenever ``adj`` is a cache, so callers never
change; ``spf.shortest_path`` rebuilds its path from the memoised
solve.  Producers -- :class:`~repro.lsr.lsdb.LinkStateDatabase` and
:class:`~repro.topo.graph.Network` -- hand out cache-wrapped images and
replace them wholesale on invalidation (LSA install, link up/down), which
preserves snapshot semantics: a computation that captured the old image
keeps computing on the old image.

Every switch computes on its own image, but the simulator hosts a whole
deployment in one process, and after a flood most switches hold images
with the same content.  SPF results are a function of content alone
(lowest-id tie-breaks), so each deployment keeps one
:class:`SolvedImages` table -- made by
:func:`~repro.lsr.router.bring_up_unicast` or
:class:`~repro.net.fabric.LiveFabric` and handed to every router of that
deployment -- and a cache whose content is already in the table adopts
that entry's solved dicts, component labels and row table instead of
starting empty.
The table is keyed by :func:`content_key`, an order-free XOR of per-edge
hashes the LSDB updates from each install's link delta; a hit also needs
equal content, so a colliding key never shares.  A miss on a content
nobody in the deployment has solved runs one
:func:`~repro.lsr.spf.dijkstra_uncached`, memoised in that entry: this
table is the only way one image reuses another's SPF results.  The entry
also holds ``detours``, the memo :mod:`repro.frr.backup` keeps its
detours in.  Every memo of a content lives in its entry, so the table's
:data:`SOLVED_BOUND` bounds them all.  The table also keeps its databases' LSA sets
(:class:`LsaSet`): the full scan that built a set's first image, that
image, and the installs out of the set, so a flood's LSA is diffed once
per deployment and each LSA set's image is built once, not once per
switch.  A :class:`~repro.topo.graph.Network` keeps a table of its own
for its views.

Memoized results are shared; callers must treat the returned ``dist`` /
``parent`` mappings as immutable (every in-tree consumer already does).
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

from repro.lsr.spf import (
    RUN_COUNTER,
    component_labels_uncached,
    dijkstra_uncached,
    first_hop_table,
)
from repro.obs import attach
from repro.obs.metrics import REGISTRY as _GLOBAL_REGISTRY

_enabled = True

#: Entries each memo of a deployment's link-state work keeps before it
#: forgets its oldest (FIFO, the way :data:`repro.core.timestamp.BOUND`
#: bounds the stamp tables): image contents and LSA sets in
#: :class:`SolvedImages`, the moves out of one :class:`LsaSet`, and the
#: flooding fabric's hop counts by up-link state.  A forgotten entry costs
#: a recomputation, never an answer.  Measured on the benchmark's
#: ``linkflap_frr_n60`` (seed 7), 3,000 fail/heal cycles: 35 distinct
#: contents, none evicted; 6,003 distinct LSA sets (each link event's one
#: LSA makes one), 5,939 of them evicted, each long after every router had
#: moved on (at a round's end the routers held at most 2); 6,002 memoised
#: moves, at most one per set; 35 up-link states, none evicted.  The other
#: workloads have no link events and hold one of each.
SOLVED_BOUND = 64

_KEY_MASK = (1 << 64) - 1


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


@dataclass
class CacheStats:
    """Process-wide SPF cache counters; the one instance is
    :data:`GLOBAL_STATS`.  Each field is written at exactly one site per
    event kind and read only by :func:`collect_spf` (and the frozen
    ``benchmarks/e2e``, by name).

    ``ispf_repairs`` and ``ispf_full_fallbacks`` counted the incremental
    SPF repairs this package no longer makes.  Nothing writes them; they
    stay, always 0, because the frozen ``benchmarks/e2e/scenarios.py``
    reads both by name."""

    hits: int = 0
    misses: int = 0
    #: Images discarded (LSA installs, link state changes);
    #: written by the producers, LinkStateDatabase and Network.
    invalidations: int = 0
    ispf_repairs: int = 0
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
        attach.DIJKSTRA_RUNS,
        "full Dijkstra executions (cached misses and uncached calls)",
    ).set_total(RUN_COUNTER.count)


#: One image change ``(u, v, old_weight, new_weight)``.  ``None`` on a side
#: means the edge is absent before/after the change.
LinkDelta = Tuple[int, int, Optional[float], Optional[float]]


def _edge_hash(u: int, v: int, weight: float) -> int:
    """One undirected edge's term in :func:`content_key`."""
    return hash((u, v, weight) if u < v else (v, u, weight)) & _KEY_MASK


def content_key(adj: Mapping[int, Mapping[int, float]]) -> int:
    """An image's content key: the XOR of its edges' :func:`_edge_hash`,
    so any insertion order gives the same key and one link delta updates
    it in O(1) (:func:`rekey`).  XOR, not a sum: tuple hashes are close to
    linear, so on a 6x6 unit grid half of the two-links-down images share
    a summed key with another image, and none share an XORed one."""
    key = 0
    for u, row in adj.items():
        for v, weight in row.items():
            if u < v:
                key ^= hash((u, v, weight))
    return key & _KEY_MASK


def rekey(key: int, delta: Tuple[LinkDelta, ...]) -> int:
    """``key`` after the ordered link ``delta``: each changed edge's old
    term out, its new term in."""
    for u, v, old_w, new_w in delta:
        if old_w is not None:
            key ^= _edge_hash(u, v, old_w)
        if new_w is not None:
            key ^= _edge_hash(u, v, new_w)
    return key


class _Solved:
    """The solved tables of one image content, adopted by every
    :class:`SpfCache` built on that content.  ``components`` is ``None``
    until :meth:`SpfCache.components` first labels the content."""

    __slots__ = ("adj", "sssp", "tables", "dags", "detours", "components")

    def __init__(self, adj: Mapping[int, Mapping[int, float]]) -> None:
        self.adj = adj
        self.sssp: Dict[int, Tuple[Dict[int, float], Dict[int, Optional[int]]]] = {}
        self.tables: Dict[int, Dict[int, int]] = {}
        self.dags: Dict[int, Dict[int, tuple]] = {}
        self.detours: Dict[Tuple[int, int], object] = {}
        self.components: Optional[Dict[int, int]] = None


def remember(table: dict, key, value) -> None:
    """``table[key] = value``, then forget the oldest entries past
    :data:`SOLVED_BOUND` (a dict keeps insertion order).  Every memo of a
    deployment's link-state work is bounded this way."""
    table[key] = value
    while len(table) > SOLVED_BOUND:
        del table[next(iter(table))]


class LsaSet:
    """One set of stored LSAs in a deployment's databases, and the work
    that follows from it.

    ``lsas`` is ``{origin: RouterLsa}`` (never mutated) and ``lsas_key``
    its order-free key, the XOR of ``hash((origin, seqnum))``.  (Not their
    sum: a tuple hash of small ints is close to linear, so sums collide
    whenever two origins' seqnums trade places.  The 4,096 sets six
    origins reach with up to three installs each have 347 distinct sums
    and 4,096 distinct XORs.)

    ``key`` is the :func:`content_key` of its image, ``rows`` the plain
    row table that image reads (``None`` until some database builds it),
    and ``image`` a weak reference to the wrapped image itself, so an
    image no database holds is still collected.  ``moves`` memoises the
    installs out of this set: ``(origin, seqnum) -> (lsa, link delta,
    the set after)``.
    """

    __slots__ = ("lsas", "lsas_key", "key", "rows", "image", "moves")

    def __init__(
        self,
        lsas: Dict[int, object],
        lsas_key: int,
        key: int,
        rows: Optional[Dict[int, Dict[int, float]]] = None,
    ) -> None:
        self.lsas = lsas
        self.lsas_key = lsas_key
        self.key = key
        self.rows = rows
        self.image: Optional[Callable[[], Optional["SpfCache"]]] = None
        self.moves: Dict[Tuple[int, int], tuple] = {}


class SolvedImages:
    """One deployment's solved images by :func:`content_key`, and its
    databases' LSA sets (:class:`LsaSet`) by LSA-set key.

    :meth:`entry` returns the entry an image adopts.  A key hit whose
    stored content differs (a hash collision) gets a fresh entry that
    stays out of the table, so a collision never shares.  :meth:`scan`
    and :meth:`move` likewise share a set only between equal LSA sets,
    and a memoised move only with an equal LSA.  Each table forgets its
    oldest entry past :data:`SOLVED_BOUND`.
    """

    __slots__ = ("_entries", "_sets")

    def __init__(self) -> None:
        self._entries: Dict[int, _Solved] = {}
        self._sets: Dict[int, LsaSet] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, key: int, adj: Mapping[int, Mapping[int, float]]) -> _Solved:
        found = self._entries.get(key)
        if found is not None:
            return found if found.adj == adj else _Solved(adj)
        found = _Solved(adj)
        remember(self._entries, key, found)
        return found

    def scan(
        self, lsas: Mapping[int, object], build: Callable[[], Dict[int, Dict[int, float]]]
    ) -> LsaSet:
        """The :class:`LsaSet` of ``lsas`` with its rows, ``build()``
        once per distinct LSA set.

        Every database of a deployment brought up together holds the
        same LSAs, and each builds its first image lazily, on first use:
        at n=400 that is an O(m) scan, key and exact check per switch.
        This is the only place an LSA-set key is taken over every LSA;
        :meth:`move` updates it per install.  With caching disabled the
        set is the caller's alone.
        """
        lsas_key = 0
        for origin, lsa in lsas.items():
            lsas_key ^= hash((origin, lsa.seqnum))
        found = self._sets.get(lsas_key) if _enabled else None
        if found is not None and found.lsas == lsas:
            if found.rows is None:
                found.rows = build()
            return found
        adj = build()
        lsaset = LsaSet(dict(lsas), lsas_key, content_key(adj), adj)
        if found is None and _enabled:
            remember(self._sets, lsas_key, lsaset)
        return lsaset

    def move(
        self,
        before: LsaSet,
        lsa,
        delta: Callable[[object, object], Tuple[LinkDelta, ...]],
    ) -> Tuple[Tuple[LinkDelta, ...], LsaSet]:
        """Install ``lsa`` in a database holding ``before``: the install's
        image delta and the set the database then holds.

        A hit is one lookup.  A miss calls ``delta(old, lsa)`` with the
        LSA it replaces, as the database would, and finds or makes the
        set after: the memo is exact because the set after is built from
        ``before.lsas`` and ``lsa``, and ``before.lsas`` equals the
        database's own.
        """
        move = (lsa.origin, lsa.seqnum)
        found = before.moves.get(move)
        if found is not None and found[0] == lsa:
            return found[1], found[2]
        old = before.lsas.get(lsa.origin)
        changes = delta(old, lsa)
        lsas = dict(before.lsas)
        lsas[lsa.origin] = lsa
        lsas_key = before.lsas_key ^ hash(move)
        if old is not None:
            lsas_key ^= hash((old.origin, old.seqnum))
        after = self._sets.get(lsas_key) if _enabled else None
        if after is None or after.lsas != lsas:
            fresh = LsaSet(lsas, lsas_key, rekey(before.key, changes))
            if changes == ():  # a refresh: the same image
                fresh.rows, fresh.image = before.rows, before.image
            if after is None and _enabled:
                remember(self._sets, lsas_key, fresh)
            after = fresh
        if found is None:
            remember(before.moves, move, (lsa, changes, after))
        return changes, after


class SpfCache(MappingABC):
    """An adjacency mapping with memoized SPF results.

    Instances are immutable snapshots of one network image: producers
    build a *new* cache whenever the image changes, rather than mutating
    an existing one.  A cache built with a ``solved`` entry reads and
    fills that entry's memos and reads its rows (:attr:`rows`); without
    one they are its own.  The memos read per query are bound on the
    view; the component labels are read through ``_solved``.
    """

    # ``__weakref__``: tests watch a superseded image get collected.
    __slots__ = ("_adj", "_sssp", "_tables", "_dags", "_solved", "detours", "__weakref__")

    def __init__(
        self,
        adj: Mapping[int, Mapping[int, float]],
        solved: Optional[_Solved] = None,
    ) -> None:
        if solved is None:
            solved = _Solved(adj)
        self._adj = solved.adj
        self._sssp = solved.sssp
        self._tables = solved.tables
        self._dags = solved.dags
        self._solved = solved
        #: ``(u, v) -> BackupFragment or None``, filled by
        #: :func:`repro.frr.backup.compute_backup_plan`.
        self.detours = solved.detours

    @property
    def rows(self) -> Mapping[int, Mapping[int, float]]:
        """The plain row table this image reads: on a table hit, the one
        the content's first image was built from (do not mutate)."""
        return self._adj

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
            f"SpfCache(nodes={len(self._adj)}, sssp={len(self._sssp)})"
        )

    # -- memoized SPF results ----------------------------------------------

    def sssp(
        self, source: int
    ) -> Tuple[Dict[int, float], Dict[int, Optional[int]]]:
        """Memoized single-source shortest paths (``spf.dijkstra``): a
        miss on this content pays one full run, which every image of the
        content then reads."""
        entry = self._sssp.get(source)
        if entry is not None:
            GLOBAL_STATS.hits += 1
            return entry
        GLOBAL_STATS.misses += 1
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

    def components(self) -> Dict[int, int]:
        """Memoized connected-component labels (``spf.component_labels``):
        one walk of the rows per content, which every image of the content
        then reads.  Not an SPF result, so it counts no hit or miss."""
        solved = self._solved
        labels = solved.components
        if labels is None:
            labels = solved.components = component_labels_uncached(self._adj)
        return labels


def wrap_image(
    adj: Dict[int, Dict[int, float]], *, table: SolvedImages, key: int
):
    """Wrap a freshly built image in a cache, honoring the global switch.

    ``key`` is the image's :func:`content_key`: the cache shares the
    solved tables and rows of every image in ``table`` with that content.
    """
    if not _enabled:
        return adj
    return SpfCache(adj, solved=table.entry(key, adj))
