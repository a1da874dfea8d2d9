"""Incremental SPF: repaired trees are byte-identical to full recomputes.

The repair in :mod:`repro.lsr.ispf` is only sound on the *canonical*
trees :func:`repro.lsr.spf.dijkstra_uncached` produces (lowest-id exact
predecessors), so every property here compares repaired ``(dist,
parent)`` dicts for exact equality against a from-scratch run on the
post-delta adjacency -- including tie-breaks and disconnections.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsr import ispf, lsdb, spfcache
from repro.lsr.ispf import MAX_REPAIR_CHAIN, repair_sssp, repair_sssp_chain
from repro.lsr.lsa import RouterLsa
from repro.lsr.lsdb import LinkStateDatabase
from repro.lsr.spfcache import SolvedImages
from repro.lsr.spf import dijkstra_uncached, network_adjacency
from repro.net.transport import RetransmitPolicy
from repro.obs import attach
from repro.topo.generators import waxman_network
from repro.topo.graph import Network

#: Few distinct values with repeats: maximizes equal-length paths, the
#: tie-break cases where a sloppy repair diverges from the canonical run.
WEIGHTS = (0.5, 1.0, 1.0, 1.0, 2.0, 2.5)


def _apply(adj, delta):
    """The post-delta adjacency (plain dicts, fresh copies)."""
    u, v, _, new_w = delta
    out = {x: dict(nbrs) for x, nbrs in adj.items()}
    for a, b in ((u, v), (v, u)):
        if new_w is None:
            out[a].pop(b, None)
        else:
            out[a][b] = new_w
    return out


@st.composite
def graph_and_delta(draw):
    """A random weighted graph plus one random single-link delta."""
    n = draw(st.integers(min_value=3, max_value=10))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    adj = {x: {} for x in range(n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.floats(min_value=0.2, max_value=0.9))
    for u, v in pairs:
        if rng.random() < density:
            w = rng.choice(WEIGHTS)
            adj[u][v] = w
            adj[v][u] = w
    edges = [(u, v) for u in adj for v in adj[u] if u < v]
    non_edges = [(u, v) for u, v in pairs if v not in adj[u]]
    kinds = ["change", "remove"] if edges else []
    if non_edges:
        kinds.append("add")
    if not kinds:
        kinds = ["noop"]
    kind = draw(st.sampled_from(kinds))
    if kind == "add":
        u, v = rng.choice(non_edges)
        delta = (u, v, None, rng.choice(WEIGHTS))
    elif kind == "remove":
        u, v = rng.choice(edges)
        delta = (u, v, adj[u][v], None)
    elif kind == "change":
        u, v = rng.choice(edges)
        old_w = adj[u][v]
        new_w = rng.choice([w for w in WEIGHTS if w != old_w])
        delta = (u, v, old_w, new_w)
    else:
        delta = (0, 1, None, None)
    source = draw(st.integers(min_value=0, max_value=n - 1))
    return adj, delta, source


class TestRepairMatchesScratch:
    @settings(max_examples=300, deadline=None)
    @given(graph_and_delta())
    def test_single_delta(self, case):
        adj, delta, source = case
        dist_old, parent_old = dijkstra_uncached(adj, source)
        post = _apply(adj, delta)
        repaired = repair_sssp(post, source, dist_old, parent_old, delta)
        assert repaired is not None
        assert repaired == dijkstra_uncached(post, source)

    @settings(max_examples=100, deadline=None)
    @given(graph_and_delta(), st.integers(min_value=0, max_value=2**32))
    def test_delta_sequence(self, case, seed):
        """A chain of deltas replayed in order equals the final scratch run."""
        adj, delta, source = case
        rng = random.Random(seed)
        deltas = [delta]
        current = _apply(adj, delta)
        for _ in range(rng.randrange(1, 4)):
            edges = [(u, v) for u in current for v in current[u] if u < v]
            if edges and rng.random() < 0.7:
                u, v = rng.choice(edges)
                old_w = current[u][v]
                new_w = rng.choice([w for w in WEIGHTS if w != old_w])
                step = (u, v, old_w, new_w)
            else:
                n = len(current)
                u = rng.randrange(n)
                v = (u + 1 + rng.randrange(n - 1)) % n
                step = (u, v, current[u].get(v), rng.choice(WEIGHTS))
            deltas.append(step)
            current = _apply(current, step)
        dist_old, parent_old = dijkstra_uncached(adj, source)
        repaired = repair_sssp_chain(
            current, source, dist_old, parent_old, tuple(deltas)
        )
        assert repaired is not None
        assert repaired == dijkstra_uncached(current, source)


class TestRepairSettleOrder:
    """A repaired tree iterates in a full run's settle order, not only
    with its values: images of equal content share solved trees, so a
    switch may read a repaired tree where it would have run in full."""

    @staticmethod
    def _assert_full_run_order(repaired, full):
        assert list(repaired[0]) == list(full[0])
        assert list(repaired[1]) == list(full[1])

    @settings(max_examples=300, deadline=None)
    @given(graph_and_delta())
    def test_single_delta(self, case):
        adj, delta, source = case
        dist_old, parent_old = dijkstra_uncached(adj, source)
        post = _apply(adj, delta)
        repaired = repair_sssp(post, source, dist_old, parent_old, delta)
        self._assert_full_run_order(repaired, dijkstra_uncached(post, source))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=MAX_REPAIR_CHAIN),
    )
    def test_delta_chain_on_waxman(self, seed, steps):
        """Every source of a 30-node Waxman graph, through a chain of
        single-edge changes (the e2e link-flap shape)."""
        rng = random.Random(seed)
        adj = network_adjacency(waxman_network(30, rng))
        deltas = []
        current = adj
        for _ in range(steps):
            edges = sorted((u, v) for u in current for v in current[u] if u < v)
            u, v = rng.choice(edges)
            old_w = current[u][v]
            step = (u, v, old_w, rng.choice((None, old_w / 2, old_w * 2)))
            deltas.append(step)
            current = _apply(current, step)
        for source in range(30):
            dist_old, parent_old = dijkstra_uncached(adj, source)
            repaired = repair_sssp_chain(
                current, source, dist_old, parent_old, tuple(deltas)
            )
            self._assert_full_run_order(
                repaired, dijkstra_uncached(current, source)
            )


class TestRepairDeterministic:
    def test_diamond_tie_break_after_removal(self):
        """parent[3] moves 1 -> 2 when the 1--3 edge disappears."""
        adj = {
            0: {1: 1.0, 2: 1.0},
            1: {0: 1.0, 3: 1.0},
            2: {0: 1.0, 3: 1.0},
            3: {1: 1.0, 2: 1.0},
        }
        dist, parent = dijkstra_uncached(adj, 0)
        assert parent[3] == 1  # lowest-id exact predecessor
        delta = (1, 3, 1.0, None)
        post = _apply(adj, delta)
        repaired = repair_sssp(post, 0, dist, parent, delta)
        assert repaired == dijkstra_uncached(post, 0)
        assert repaired[1][3] == 2

    def test_detached_subtree_becomes_unreachable(self):
        adj = {0: {1: 1.0}, 1: {0: 1.0, 2: 1.0}, 2: {1: 1.0}}
        dist, parent = dijkstra_uncached(adj, 0)
        delta = (1, 2, 1.0, None)
        post = _apply(adj, delta)
        repaired = repair_sssp(post, 0, dist, parent, delta)
        assert repaired == dijkstra_uncached(post, 0)
        assert 2 not in repaired[0] and 2 not in repaired[1]

    def test_noop_delta_returns_same_objects(self):
        adj = {0: {1: 1.0}, 1: {0: 1.0}}
        dist, parent = dijkstra_uncached(adj, 0)
        out = repair_sssp(adj, 0, dist, parent, (0, 1, 1.0, 1.0))
        assert out[0] is dist and out[1] is parent

    def test_non_tree_edge_increase_returns_same_objects(self):
        """Stretching an edge no shortest path uses changes nothing."""
        adj = {
            0: {1: 1.0, 2: 1.0},
            1: {0: 1.0, 2: 5.0},
            2: {0: 1.0, 1: 5.0},
        }
        dist, parent = dijkstra_uncached(adj, 0)
        delta = (1, 2, 5.0, 9.0)
        post = _apply(adj, delta)
        out = repair_sssp(post, 0, dist, parent, delta)
        assert out[0] is dist and out[1] is parent


def _lsa(origin, seqnum, links):
    return RouterLsa(origin, seqnum, tuple(links))


def _square_db():
    """4-switch ring 0-1-2-3-0 with unit delays, fully installed."""
    db = LinkStateDatabase(4, SolvedImages())
    ring = {0: (1, 3), 1: (0, 2), 2: (1, 3), 3: (0, 2)}
    for origin, nbrs in ring.items():
        db.install(_lsa(origin, 1, [(n, 1.0, True) for n in nbrs]))
    return db


class TestLsdbDeltaChain:
    def test_single_link_change_repairs(self, registry_delta):
        db = _square_db()
        image = db.adjacency()
        for x in range(4):
            image.sssp(x)
        registry_delta()
        # Switch 0 re-advertises the 0--1 link slower.
        db.install(_lsa(0, 2, [(1, 3.0, True), (3, 1.0, True)]))
        assert db.last_install_changed_image
        image2 = db.adjacency()
        assert image2 is not image
        for x in range(4):
            dist, parent = image2.sssp(x)
            assert (dist, parent) == dijkstra_uncached(dict(image2), x)
        delta = registry_delta()
        assert delta[attach.SPF_ISPF_REPAIRS] == 4
        assert delta[attach.SPF_RELAXATIONS] > 0

    def test_multi_install_sequence_still_repairs(self, registry_delta):
        """Two installs between rebuilds replay as an ordered delta chain."""
        db = _square_db()
        image = db.adjacency()
        for x in range(4):
            image.sssp(x)
        db.install(_lsa(0, 2, [(1, 3.0, True), (3, 1.0, True)]))
        db.install(_lsa(2, 2, [(1, 1.0, True), (3, 4.0, True)]))
        image2 = db.adjacency()
        registry_delta()
        for x in range(4):
            assert image2.sssp(x) == dijkstra_uncached(dict(image2), x)
        assert registry_delta()[attach.SPF_ISPF_REPAIRS] == 4

    def test_refresh_install_keeps_image(self):
        db = _square_db()
        image = db.adjacency()
        image.sssp(0)
        # Pure seqnum refresh: identical link content.
        db.install(_lsa(0, 2, [(1, 1.0, True), (3, 1.0, True)]))
        assert not db.last_install_changed_image
        assert db.adjacency() is image

    def test_ispf_disabled_matches(self):
        def run():
            db = _square_db()
            db.adjacency().sssp(0)
            db.install(_lsa(0, 2, [(1, 3.0, True), (3, 1.0, True)]))
            return db.adjacency().sssp(0)

        with spfcache.ispf_disabled():
            full = run()
        assert run() == full


class TestNetworkDeltaChain:
    def test_link_state_flip_repairs_view(self, registry_delta):
        net = Network(5)
        for u, v in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)):
            net.add_link(u, v, delay=1.0)
        view = net.spf_view()
        for x in range(5):
            view.sssp(x)
        registry_delta()
        net.set_link_state(1, 3, up=False)
        view2 = net.spf_view()
        for x in range(5):
            assert view2.sssp(x) == dijkstra_uncached(dict(view2), x)
        assert registry_delta()[attach.SPF_ISPF_REPAIRS] > 0


class TestSharedDeltaCap:
    """One constant caps producer tracking and consumer replay."""

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
        db = LinkStateDatabase(3, SolvedImages())
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


class TestRetransmitPolicyProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.001, max_value=0.2),
        st.floats(min_value=0.2, max_value=5.0),
        st.integers(min_value=1, max_value=40),
    )
    def test_timeout_monotone_and_capped(self, rto, rto_max, attempts):
        policy = RetransmitPolicy(rto=rto, rto_max=rto_max)
        timeouts = [policy.timeout(a) for a in range(1, attempts + 1)]
        assert all(b >= a for a, b in zip(timeouts, timeouts[1:]))
        assert all(t <= rto_max for t in timeouts)
        assert timeouts[0] == min(rto, rto_max)
