"""Differential tests for the flat-array CSR graph core.

The CSR core (:mod:`repro.lsr.csr`) must be **byte-identical** to the
dict Dijkstra -- distances, parents, settle/iteration order, routing
tables, next-hop DAGs, and masked FRR paths -- across
disconnected graphs, equal-cost ties, and weight-patch (delta) chains up
to the shared repair horizon.  Every property here compares ``repr``
strings, so dict *iteration order* is part of the contract (the
memoization and the bench equivalence gates depend on it).

Also hosts the regression tests for the two satellite bugfixes riding
this change: the O(n) single-pass routing-table build (was a quadratic
parent-chain walk) and the shared producer/consumer delta cap (was two
independently defined ``8``s).
"""

from __future__ import annotations

import contextlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frr.backup import _masked_shortest_path
from repro.lsr import csr, ispf, lsdb, spf, spfcache
from repro.lsr.csr import CsrGraph
from repro.lsr.ispf import MAX_REPAIR_CHAIN
from repro.lsr.lsa import RouterLsa
from repro.lsr.lsdb import LinkStateDatabase
from repro.lsr.spf import (
    TABLE_STEP_COUNTER,
    dijkstra_uncached,
    first_hop_table,
    next_hop_dag,
    routing_table,
)
from repro.obs import attach

#: The one array backend.  The parameter only pins the ``[scipy]`` test
#: ids, which the regression floor names; the dict core is the oracle.
scipy_backend = pytest.mark.parametrize(
    "compile_csr", [pytest.param(CsrGraph.from_adjacency, id="scipy")]
)

#: Few distinct values with repeats: maximizes equal-cost paths, the tie
#: cases where the canonical-parent and settle-order reconstruction must
#: match the dict core's heap exactly.
WEIGHTS = (0.5, 1.0, 1.0, 1.0, 2.0, 2.5)


@contextlib.contextmanager
def _size_floor(nodes: int):
    """Run the body with SpfCache's CSR engagement floor set to ``nodes``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csr, "MIN_NODES", nodes)
        yield


def _random_adj(rng: random.Random, n: int, density: float):
    """A random undirected weighted graph; low density => disconnected."""
    adj = {x: {} for x in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                w = rng.choice(WEIGHTS)
                adj[u][v] = w
                adj[v][u] = w
    return adj


@st.composite
def graph_and_source(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    density = draw(st.floats(min_value=0.1, max_value=0.9))
    adj = _random_adj(rng, n, density)
    source = draw(st.integers(min_value=0, max_value=n - 1))
    return adj, source


def _delta_chain(rng: random.Random, adj, length: int):
    """``length`` successive single-link deltas and the adjacency after
    each (same shapes :meth:`LinkStateDatabase.install` tracks)."""
    deltas = []
    images = []
    cur = {x: dict(nbrs) for x, nbrs in adj.items()}
    nodes = sorted(cur)
    for _ in range(length):
        pairs = [(u, v) for u in nodes for v in nodes if u < v]
        edges = [(u, v) for u, v in pairs if v in cur[u]]
        non_edges = [(u, v) for u, v in pairs if v not in cur[u]]
        kind = rng.choice(
            (["change", "remove"] if edges else []) + (["add"] if non_edges else [])
        )
        if kind == "add":
            u, v = rng.choice(non_edges)
            delta = (u, v, None, rng.choice(WEIGHTS))
        elif kind == "remove":
            u, v = rng.choice(edges)
            delta = (u, v, cur[u][v], None)
        else:
            u, v = rng.choice(edges)
            old_w = cur[u][v]
            delta = (u, v, old_w, rng.choice([w for w in WEIGHTS if w != old_w]))
        u, v, _, new_w = delta
        nxt = {x: dict(nbrs) for x, nbrs in cur.items()}
        for a, b in ((u, v), (v, u)):
            if new_w is None:
                nxt[a].pop(b, None)
            else:
                nxt[a][b] = new_w
        deltas.append(delta)
        images.append(nxt)
        cur = nxt
    return deltas, images


class TestDifferentialSolve:
    """CsrGraph solves == dijkstra_uncached, repr-for-repr."""

    @scipy_backend
    @settings(max_examples=60, deadline=None)
    @given(case=graph_and_source())
    def test_tree_matches_dict_core(self, compile_csr, case):
        adj, source = case
        graph = compile_csr(adj)
        expected = dijkstra_uncached(adj, source)
        got = graph.tree(source, count=False).dicts()
        assert repr(got) == repr(expected)

    @scipy_backend
    @settings(max_examples=30, deadline=None)
    @given(case=graph_and_source())
    def test_batched_trees_match_dict_core(self, compile_csr, case):
        adj, _ = case
        graph = compile_csr(adj)
        sources = sorted(adj)
        trees = graph.trees(sources, count=False)
        for s, tree in zip(sources, trees):
            assert repr(tree.dicts()) == repr(dijkstra_uncached(adj, s))

    @scipy_backend
    @settings(max_examples=40, deadline=None)
    @given(case=graph_and_source())
    def test_tables_and_dags_match_via_cache(self, compile_csr, case):
        """Through SpfCache (the production path): tables and DAGs."""
        adj, source = case
        cache = spfcache.SpfCache(adj)
        cache._csr = compile_csr(adj)
        cache._csr_ready = True
        assert repr(spf.dijkstra(cache, source)) == repr(
            dijkstra_uncached(adj, source)
        )
        assert repr(cache.routing_table(source)) == repr(
            routing_table(adj, source)
        )
        assert repr(next_hop_dag(cache, source)) == repr(
            next_hop_dag(adj, source)
        )

    @scipy_backend
    def test_relax_counter_parity(self, compile_csr):
        """A CSR full run charges exactly the dict core's relaxations."""
        rng = random.Random(11)
        adj = _random_adj(rng, 10, 0.5)
        before = spf.RELAX_COUNTER.count
        dijkstra_uncached(adj, 0)
        dict_relax = spf.RELAX_COUNTER.count - before
        graph = compile_csr(adj)
        before = spf.RELAX_COUNTER.count
        graph.tree(0)
        assert spf.RELAX_COUNTER.count - before == dict_relax


class TestDifferentialPatching:
    """Weight-patched clones == fresh compiles of the post-delta image."""

    @scipy_backend
    @settings(max_examples=40, deadline=None)
    @given(
        case=graph_and_source(),
        chain_len=st.integers(min_value=1, max_value=MAX_REPAIR_CHAIN),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_patched_matches_rebuild(self, compile_csr, case, chain_len, seed):
        adj, source = case
        rng = random.Random(seed)
        deltas, images = _delta_chain(rng, adj, chain_len)
        graph = compile_csr(adj)
        patched = graph.patched(tuple(deltas), images[-1])
        if patched is None:
            # Inexpressible in this layout (an added edge): rebuild path.
            assert any(old_w is None for _, _, old_w, _ in deltas)
            return
        rebuilt = compile_csr(images[-1])
        assert repr(patched.tree(source, count=False).dicts()) == repr(
            rebuilt.tree(source, count=False).dicts()
        )
        assert repr(patched.tree(source, count=False).dicts()) == repr(
            dijkstra_uncached(images[-1], source)
        )

    @scipy_backend
    def test_kill_revive_kill_tracks_dead_slots(self, compile_csr):
        """A slot patched out, back in, and out again counts dead once."""
        adj = {0: {1: 1.0, 2: 2.0}, 1: {0: 1.0, 2: 1.0}, 2: {0: 2.0, 1: 1.0}}
        graph = compile_csr(adj)
        after = {0: {2: 2.0}, 1: {2: 1.0}, 2: {0: 2.0, 1: 1.0}}
        deltas = (
            (0, 1, 1.0, None),
            (0, 1, None, 0.5),
            (0, 1, 0.5, None),
        )
        patched = graph.patched(deltas, after)
        assert patched is not None
        assert patched.weight_of(0, 1) is None
        assert patched.dead_out.dtype == np.int64
        assert int(patched.dead_out[0]) == 1
        assert int(patched.dead_out[1]) == 1
        assert repr(patched.tree(0, count=False).dicts()) == repr(
            dijkstra_uncached(after, 0)
        )

    @scipy_backend
    @settings(max_examples=30, deadline=None)
    @given(
        case=graph_and_source(),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_cache_generation_chain(self, compile_csr, case, seed):
        """SpfCache generations linked by deltas reuse patched graphs and
        still answer byte-identically to the dict core."""
        adj, source = case
        rng = random.Random(seed)
        deltas, images = _delta_chain(rng, adj, 3)
        with _size_floor(0):
            prev = spfcache.SpfCache(adj)
            prev.sssp(source)  # compiles the CSR core lazily
            for k, (delta, image) in enumerate(zip(deltas, images)):
                cache = spfcache.SpfCache(
                    image, generation=k + 1, prev=prev, delta=(delta,)
                )
                # The memoized answer may come from an ISPF repair, which
                # is value-identical (not order-identical) by contract.
                assert cache.sssp(source) == dijkstra_uncached(image, source)
                prev_graph = prev.csr_graph()
                graph = cache.csr_graph()
                assert graph is not None
                u, v = delta[0], delta[1]
                if prev_graph is not None and prev_graph._slot(u, v) is not None:
                    # Expressible delta: the chain patched, not rebuilt.
                    assert graph.indices is prev_graph.indices
                # A fresh solve on the (possibly patched) graph is
                # repr-identical to the dict core, order included.
                assert repr(graph.tree(source, count=False).dicts()) == repr(
                    dijkstra_uncached(image, source)
                )
                prev = cache


class TestDifferentialMaskedPath:
    """masked_path == the FRR dict-walk, edge for edge."""

    @scipy_backend
    @settings(max_examples=40, deadline=None)
    @given(case=graph_and_source(), seed=st.integers(0, 2**32))
    def test_masked_path_matches_dict_walk(self, compile_csr, case, seed):
        adj, source = case
        rng = random.Random(seed)
        edges = [(u, v) for u in adj for v in adj[u] if u < v]
        banned = rng.choice(edges) if edges else (0, 1)
        graph = compile_csr(adj)
        for target in adj:
            expected = _masked_shortest_path(adj, source, target, banned)
            assert graph.masked_path(source, target, banned) == expected


class TestRoutingTableLinear:
    """Satellite 1: the first-hop build is a single pass, not a chain walk."""

    def test_path_graph_is_linear(self):
        """n=10k path graph: total chain steps bounded by O(n), where the
        old per-destination parent-chain walk did ~n^2/2."""
        n = 10_000
        adj = {i: {} for i in range(n)}
        for i in range(n - 1):
            adj[i][i + 1] = 1.0
            adj[i + 1][i] = 1.0
        before = TABLE_STEP_COUNTER.count
        table = routing_table(adj, 0)
        steps = TABLE_STEP_COUNTER.count - before
        assert steps <= 2 * n
        assert len(table) == n - 1
        assert all(hop == 1 for hop in table.values())

    @settings(max_examples=40, deadline=None)
    @given(case=graph_and_source())
    def test_matches_naive_chain_walk(self, case):
        """The single-pass table equals the per-destination chain walk."""
        adj, source = case
        dist, parent = dijkstra_uncached(adj, source)
        naive = {}
        for dest in dist:
            if dest == source:
                continue
            hop = dest
            while parent[hop] != source:
                hop = parent[hop]
            naive[dest] = hop
        assert repr(first_hop_table(source, dist, parent)) == repr(naive)


class TestSharedDeltaCap:
    """Satellite 2: one constant caps producer tracking and consumer replay."""

    def test_single_shared_constant(self):
        assert lsdb._MAX_PENDING_DELTAS is ispf.MAX_REPAIR_CHAIN
        assert spfcache._MAX_REPAIR_CHAIN is ispf.MAX_REPAIR_CHAIN

    def _full_mesh_lsas(self, n, seq=1, tweak=None):
        lsas = []
        for origin in range(n):
            links = []
            for nbr in range(n):
                if nbr == origin:
                    continue
                delay = 1.0
                if tweak is not None and {origin, nbr} == set(tweak[:2]):
                    delay = tweak[2]
                links.append((nbr, delay, True))
            lsas.append(RouterLsa(origin, seq, tuple(links)))
        return lsas

    def _chain_run(self, installs: int, registry_delta):
        """Memoize one source, apply ``installs`` single-link deltas
        before the rebuild, re-query; returns the registry delta."""
        db = LinkStateDatabase(3)
        for lsa in self._full_mesh_lsas(3):
            db.install(lsa)
        image = db.adjacency()
        image.sssp(0)
        for k in range(installs):
            db.install(
                self._full_mesh_lsas(3, seq=2 + k, tweak=(0, 1, 2.0 + k))[0]
            )
        registry_delta()
        new_image = db.adjacency()
        new_image.sssp(0)
        delta = registry_delta()
        adj = {x: dict(nbrs) for x, nbrs in new_image.items()}
        assert repr(new_image.sssp(0)) == repr(dijkstra_uncached(adj, 0))
        return delta

    def test_at_cap_repairs(self, registry_delta):
        """Exactly MAX_REPAIR_CHAIN deltas stay on the repair path."""
        diff = self._chain_run(MAX_REPAIR_CHAIN, registry_delta)
        assert diff[attach.SPF_ISPF_REPAIRS] >= 1
        assert diff[attach.SPF_ISPF_FALLBACKS] == 0

    def test_past_cap_falls_back_exactly_once(self, registry_delta):
        """Nine deltas (cap + 1) degrade the sequence: the re-query pays
        exactly one full Dijkstra fallback, not one per delta."""
        diff = self._chain_run(MAX_REPAIR_CHAIN + 1, registry_delta)
        assert diff[attach.SPF_ISPF_FALLBACKS] == 1
        assert diff[attach.SPF_FULL_RUNS] == 1
        assert diff[attach.SPF_ISPF_REPAIRS] == 0


class TestCacheEngagement:
    """SpfCache only compiles CSR at or above the size floor."""

    def test_small_image_stays_on_dicts(self):
        adj = _random_adj(random.Random(3), 10, 0.6)
        assert len(adj) < csr.MIN_NODES
        cache = spfcache.SpfCache(adj)
        cache.sssp(0)
        assert cache.csr_graph() is None
        assert cache.sssp_tree(0) is None

    def test_prewarm_batches_and_counts_once(self, registry_delta):
        adj = _random_adj(random.Random(5), 12, 0.6)
        with _size_floor(0):
            cache = spfcache.SpfCache(adj)
            registry_delta()
            solved = cache.prewarm(sorted(adj))
            assert solved == len(adj)
            delta = registry_delta()
            assert delta[attach.DIJKSTRA_RUNS] == len(adj)
            assert delta[attach.SPF_MISSES] == len(adj)
            # The trees stay in array form until someone reads them ...
            tree = cache.sssp_tree(0)
            assert tree is not None
            registry_delta()
            # ... and materializing the dict view counts as a hit.
            view = cache.sssp(0)
            assert registry_delta()[attach.SPF_HITS] == 1
            assert repr(view) == repr(dijkstra_uncached(adj, 0))
            assert cache.prewarm(sorted(adj)) == 0
