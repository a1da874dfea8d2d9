"""SPF cache: correctness vs uncached, invalidation, and determinism."""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.core import (
    DgmcNetwork,
    JoinEvent,
    LinkEvent,
    ProtocolConfig,
)
from repro.lsr import spf, spfcache
from repro.lsr.lsa import RouterLsa
from repro.lsr.lsdb import LinkStateDatabase
from repro.lsr.spfcache import SOLVED_BOUND, SolvedImages, SpfCache, content_key
from repro.obs import attach
from repro.topo.generators import grid_network, ring_network, waxman_network
from repro.topo.graph import Network
from repro.trees.spt import source_rooted_tree


def diamond() -> Network:
    """0-1-3 and 0-2-3 with unit delays: equal-cost paths to 3."""
    net = Network(4)
    net.add_link(0, 1)
    net.add_link(0, 2)
    net.add_link(1, 3)
    net.add_link(2, 3)
    return net


class TestCorrectnessVsUncached:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, 20])
    def test_sssp_matches_plain_adjacency(self, n, seed):
        net = waxman_network(n, random.Random(seed))
        plain = spf.network_adjacency(net)
        view = net.spf_view()
        assert isinstance(view, SpfCache)
        assert view == plain  # mapping protocol: same adjacency content
        for src in net.switches():
            assert spf.dijkstra(view, src) == spf.dijkstra_uncached(plain, src)
            assert spf.routing_table(view, src) == spf.routing_table(plain, src)

    def test_shortest_path_matches_all_pairs(self, small_waxman):
        plain = spf.network_adjacency(small_waxman)
        view = small_waxman.spf_view()
        for s in small_waxman.switches():
            for t in small_waxman.switches():
                assert spf.shortest_path(view, s, t) == spf.shortest_path(
                    plain, s, t
                )

    def test_tree_algorithms_accept_cached_view(self, small_waxman):
        plain = spf.network_adjacency(small_waxman)
        view = small_waxman.spf_view()
        members = frozenset({1, 5, 9, 13})
        assert source_rooted_tree(view, 1, members) == source_rooted_tree(
            plain, 1, members
        )

    def test_unreachable_target_returns_none(self):
        net = Network(3)
        net.add_link(0, 1)
        view = net.spf_view()
        assert spf.shortest_path(view, 0, 2) is None
        assert spf.shortest_path(view, 0, 1) == [0, 1]


class TestMemoization:
    def test_sssp_runs_dijkstra_once_per_source(self, registry_delta):
        cache = SpfCache({0: {1: 1.0}, 1: {0: 1.0}})
        registry_delta()
        first = cache.sssp(0)
        second = cache.sssp(0)
        assert first is second
        delta = registry_delta()
        assert delta[attach.DIJKSTRA_RUNS] == 1
        assert delta[attach.SPF_MISSES] == 1
        assert delta[attach.SPF_HITS] == 1

    def test_repeated_path_queries_solve_sssp_once(self, small_waxman):
        view = small_waxman.spf_view()
        before = spf.RUN_COUNTER.count
        for target in small_waxman.switches():
            spf.shortest_path(view, 0, target)
        assert spf.RUN_COUNTER.count - before == 1

    def test_routing_table_and_shortest_path_share_the_sssp(self):
        view = diamond().spf_view()
        before = spf.RUN_COUNTER.count
        spf.routing_table(view, 0)
        spf.shortest_path(view, 0, 3)
        assert spf.RUN_COUNTER.count - before == 1

    def test_prewarm_solves_each_source_once(self, small_waxman, registry_delta):
        adj = spf.network_adjacency(small_waxman)
        sources = sorted(adj)
        oracle = {s: repr(spf.dijkstra_uncached(adj, s)) for s in sources}
        cache = SpfCache(adj)
        registry_delta()
        assert cache.prewarm(sources) == len(sources)
        delta = registry_delta()
        assert delta[attach.SPF_MISSES] == len(sources)
        assert delta[attach.DIJKSTRA_RUNS] == len(sources)
        for s in sources:
            assert repr(cache.sssp(s)) == oracle[s]
        assert cache.prewarm(sources) == 0
        delta = registry_delta()
        assert delta[attach.SPF_HITS] == len(sources)
        assert delta[attach.SPF_MISSES] == 0

    def test_registry_delta_pins_every_spf_sample(self, registry_delta):
        """Cold solve, warm hit, one-link install, multi-link install, a
        content seen before: each event is written once and read through
        the registry."""
        lsa = TestInvalidation._lsa
        db = LinkStateDatabase(3, SolvedImages())
        db.install(lsa(0, 1, [(1, 1.0, True), (2, 1.0, True)]))
        db.install(lsa(1, 1, [(0, 1.0, True), (2, 1.0, True)]))
        db.install(lsa(2, 1, [(0, 1.0, True), (1, 1.0, True)]))
        spf_samples = (
            attach.SPF_HITS,
            attach.SPF_MISSES,
            attach.SPF_INVALIDATIONS,
            attach.DIJKSTRA_RUNS,
        )

        def step():
            delta = registry_delta()
            return tuple(delta[name] for name in spf_samples)

        registry_delta()
        db.adjacency().sssp(0)  # cold: one miss, one full Dijkstra
        assert step() == (0, 1, 0, 1)

        db.adjacency().sssp(0)  # warm: one hit, no work
        assert step() == (1, 0, 0, 0)

        # One changed link: the image is invalidated once and the new
        # content's miss pays one full run.
        db.install(lsa(0, 2, [(1, 5.0, True), (2, 1.0, True)]))
        db.adjacency().sssp(0)
        assert step() == (0, 1, 1, 1)

        # Two changed links in one LSA: the same.
        db.install(lsa(0, 3, [(1, 1.0, True), (2, 4.0, True)]))
        db.adjacency().sssp(0)
        assert step() == (0, 1, 1, 1)

        # Back to the first content: its solved tree is read, not re-run.
        db.install(lsa(0, 4, [(1, 1.0, True), (2, 1.0, True)]))
        db.adjacency().sssp(0)
        assert step() == (1, 0, 1, 0)


class TestInvalidation:
    @staticmethod
    def _lsa(origin, seqnum, links):
        return RouterLsa(origin, seqnum, tuple(links))

    def test_lsdb_install_invalidates_snapshot(self, registry_delta):
        db = LinkStateDatabase(2, SolvedImages())
        db.install(self._lsa(0, 1, [(1, 1.0, True)]))
        db.install(self._lsa(1, 1, [(0, 1.0, True)]))
        image1 = db.adjacency()
        assert db.adjacency() is image1  # stable until the next install
        assert image1[0] == {1: 1.0}

        registry_delta()
        assert db.install(self._lsa(0, 2, [(1, 1.0, False)]))
        image2 = db.adjacency()
        assert image2 is not image1
        assert registry_delta()[attach.SPF_INVALIDATIONS] == 1
        assert image2[0] == {}  # the down link left the image
        # Snapshot semantics: the old image still answers on old state.
        assert spf.shortest_path(image1, 0, 1) == [0, 1]

    def test_lsdb_refresh_install_keeps_snapshot(self, registry_delta):
        """A pure seqnum refresh must not discard the image or its memos."""
        db = LinkStateDatabase(2, SolvedImages())
        db.install(self._lsa(0, 1, [(1, 1.0, True)]))
        db.install(self._lsa(1, 1, [(0, 1.0, True)]))
        image = db.adjacency()
        image.sssp(0)
        registry_delta()
        assert db.install(self._lsa(0, 2, [(1, 1.0, True)]))  # same content
        assert not db.last_install_changed_image
        assert db.adjacency() is image
        assert registry_delta()[attach.SPF_INVALIDATIONS] == 0

    def test_lsdb_single_link_install_runs_one_dijkstra(self, registry_delta):
        db = LinkStateDatabase(3, SolvedImages())
        db.install(self._lsa(0, 1, [(1, 1.0, True), (2, 1.0, True)]))
        db.install(self._lsa(1, 1, [(0, 1.0, True), (2, 1.0, True)]))
        db.install(self._lsa(2, 1, [(0, 1.0, True), (1, 1.0, True)]))
        db.adjacency().sssp(0)
        registry_delta()
        assert db.install(self._lsa(0, 2, [(1, 5.0, True), (2, 1.0, True)]))
        assert db.last_install_changed_image
        image = db.adjacency()
        solved = image.sssp(0)
        delta = registry_delta()
        assert delta[attach.SPF_MISSES] == 1
        assert delta[attach.DIJKSTRA_RUNS] == 1
        plain = {x: dict(row) for x, row in image.items()}
        assert repr(solved) == repr(spf.dijkstra_uncached(plain, 0))

    def test_superseded_image_is_collectable(self):
        """Once an install or a link event supersedes an image, nothing
        the producer or the next image holds keeps it alive."""
        db = LinkStateDatabase(3, SolvedImages())
        db.install(self._lsa(0, 1, [(1, 1.0, True), (2, 1.0, True)]))
        db.install(self._lsa(1, 1, [(0, 1.0, True), (2, 1.0, True)]))
        db.install(self._lsa(2, 1, [(0, 1.0, True), (1, 1.0, True)]))
        db.adjacency().sssp(0)
        old_image = weakref.ref(db.adjacency())
        db.install(self._lsa(0, 2, [(1, 5.0, True), (2, 1.0, True)]))
        db.adjacency().sssp(0)
        net = diamond()
        net.spf_view().sssp(0)
        old_view = weakref.ref(net.spf_view())
        net.set_link_state(0, 1, up=False)
        net.spf_view().sssp(0)
        gc.collect()
        assert old_image() is None
        assert old_view() is None

    def test_lsdb_stale_install_keeps_snapshot(self):
        db = LinkStateDatabase(2, SolvedImages())
        db.install(self._lsa(0, 5, [(1, 1.0, True)]))
        db.install(self._lsa(1, 1, [(0, 1.0, True)]))
        image = db.adjacency()
        assert not db.install(self._lsa(0, 4, [(1, 1.0, False)]))  # older
        assert db.adjacency() is image

    def test_link_flap_invalidates_network_view(self, registry_delta):
        net = diamond()
        view1 = net.spf_view()
        version1 = net.version
        assert net.spf_view() is view1
        registry_delta()

        net.set_link_state(0, 1, up=False)
        assert net.version == version1 + 1
        view2 = net.spf_view()
        assert view2 is not view1
        assert registry_delta()[attach.SPF_INVALIDATIONS] == 1
        assert 1 not in view2[0]
        assert spf.shortest_path(view2, 0, 3) == [0, 2, 3]

        net.set_link_state(0, 1, up=True)
        assert net.spf_view() is not view2

    def test_add_link_invalidates_network_view(self):
        net = Network(3)
        net.add_link(0, 1)
        view = net.spf_view()
        net.add_link(1, 2)
        assert net.spf_view() is not view
        assert spf.shortest_path(net.spf_view(), 0, 2) == [0, 1, 2]

    def test_link_event_invalidates_router_images(self):
        """A flooded link-down LSA must invalidate every switch's image."""
        dgmc = DgmcNetwork(
            grid_network(3, 3),
            ProtocolConfig(compute_time=0.5, per_hop_delay=0.05),
        )
        dgmc.register_symmetric(1)
        for i, sw in enumerate((0, 4, 8)):
            dgmc.inject(JoinEvent(sw, 1), at=50.0 * (i + 1))
        dgmc.run()
        snap0 = dgmc.metrics.snapshot()

        dgmc.inject(LinkEvent(0, 0, 1, up=False), at=500.0)
        dgmc.run()
        assert dgmc.quiescent()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        # Both detectors re-originate, so every LSDB drops its image.
        assert dgmc.metrics.delta(snap0)[attach.SPF_INVALIDATIONS] > 0
        up_edges = {link.key for link in dgmc.net.links()}
        state = dgmc.states_for(1)[0]
        for _, tree in state.installed.trees:
            assert tree.edges <= up_edges

    def test_reoptimize_on_link_up_recomputes_on_fresh_image(self):
        dgmc = DgmcNetwork(
            grid_network(3, 3),
            ProtocolConfig(
                compute_time=0.5, per_hop_delay=0.05, reoptimize_on_link_up=True
            ),
        )
        dgmc.register_symmetric(1)
        for i, sw in enumerate((0, 4, 8)):
            dgmc.inject(JoinEvent(sw, 1), at=50.0 * (i + 1))
        dgmc.run()

        dgmc.inject(LinkEvent(0, 0, 1, up=False), at=500.0)
        dgmc.run()
        comps_down = dgmc.total_computations()
        snap_down = dgmc.metrics.snapshot()

        dgmc.inject(LinkEvent(0, 0, 1, up=True), at=1000.0)
        dgmc.run()
        assert dgmc.quiescent()
        ok, detail = dgmc.agreement(1)
        assert ok, detail
        # Recovery is an MC event: a new computation on a new image.
        assert dgmc.total_computations() > comps_down
        assert dgmc.metrics.delta(snap_down)[attach.SPF_INVALIDATIONS] > 0


class TestDeterminism:
    def test_tie_break_identical_through_cache(self):
        net = diamond()
        plain = spf.network_adjacency(net)
        view = net.spf_view()
        _, parent_cached = spf.dijkstra(view, 0)
        _, parent_plain = spf.dijkstra_uncached(plain, 0)
        assert parent_cached == parent_plain
        assert parent_cached[3] == 1  # equal-cost tie resolved to lower id

    def test_memoized_result_is_stable_across_queries(self):
        view = diamond().spf_view()
        first = spf.dijkstra(view, 0)
        assert spf.dijkstra(view, 0) == first
        assert source_rooted_tree(view, 0, frozenset({0, 3})) == (
            source_rooted_tree(view, 0, frozenset({0, 3}))
        )


class TestGlobalSwitch:
    def test_disabled_views_are_plain_dicts(self):
        net = diamond()
        with spfcache.disabled():
            assert not spfcache.enabled()
            view = net.spf_view()
            assert isinstance(view, dict)
            db = LinkStateDatabase(2, SolvedImages())
            db.install(RouterLsa(0, 1, ((1, 1.0, True),)))
            db.install(RouterLsa(1, 1, ((0, 1.0, True),)))
            assert isinstance(db.adjacency(), dict)
        assert spfcache.enabled()
        assert isinstance(net.spf_view(), SpfCache)

    def test_disabled_run_pays_one_dijkstra_per_query(self):
        net = diamond()
        with spfcache.disabled():
            view = net.spf_view()
            before = spf.RUN_COUNTER.count
            spf.shortest_path(view, 0, 3)
            spf.shortest_path(view, 0, 3)
            assert spf.RUN_COUNTER.count - before == 2


def _ring_lsa(origin, seqnum, n=6, delays=None, down=()):
    """Switch ``origin``'s LSA on an ``n``-ring: ``delays`` maps a
    neighbor to its advertised delay (default 1.0), ``down`` lists the
    neighbors it advertises down."""
    delays = delays or {}
    links = tuple(
        (nbr, delays.get(nbr, 1.0), nbr not in down)
        for nbr in sorted({(origin - 1) % n, (origin + 1) % n})
    )
    return RouterLsa(origin, seqnum, links)


class TestSolvedImages:
    """One deployment solves each image content once: every image with
    that content adopts one entry of the deployment's table."""

    def test_install_orders_reach_one_entry(self, registry_delta, monkeypatch):
        scans = []
        scan = LinkStateDatabase._scan
        monkeypatch.setattr(
            LinkStateDatabase, "_scan", lambda db: scans.append(db) or scan(db)
        )
        table = SolvedImages()
        a = LinkStateDatabase(6, table)
        b = LinkStateDatabase(6, table)
        for x in range(6):
            a.install(_ring_lsa(x, 1))
        for x in reversed(range(6)):
            b.install(_ring_lsa(x, 1))
        assert a.adjacency().detours is b.adjacency().detours
        assert scans == [a]  # equal LSAs: b reads a's full scan
        assert a._rows is b._rows
        # Two link changes, applied in opposite orders with an image
        # built in between: the key follows each delta, and both orders
        # reach one LSA set, whose image b rebinds rather than rebuilds.
        cut = _ring_lsa(2, 2, down=(3,))
        slow = _ring_lsa(4, 2, delays={5: 3.0})
        a.install(cut)
        a.adjacency()
        a.install(slow)
        b.install(slow)
        b.adjacency()
        b.install(cut)
        image_a, image_b = a.adjacency(), b.adjacency()
        assert image_a is image_b
        assert a._lsas is b._lsas
        assert a._lsas.key == content_key(image_a)
        registry_delta()
        assert image_a.sssp(0) is image_b.sssp(0)
        delta = registry_delta()
        assert (delta[attach.SPF_MISSES], delta[attach.SPF_HITS]) == (1, 1)

    def test_colliding_key_never_shares(self, monkeypatch):
        monkeypatch.setattr(spfcache, "content_key", lambda adj: 0)
        monkeypatch.setattr(spfcache, "rekey", lambda key, delta: 0)
        table = SolvedImages()
        a = LinkStateDatabase(6, table)
        b = LinkStateDatabase(6, table)
        for x in range(6):
            a.install(_ring_lsa(x, 1))
            b.install(_ring_lsa(x, 1, delays={(x + 1) % 6: 2.0, (x - 1) % 6: 2.0}))
        image_a, image_b = a.adjacency(), b.adjacency()
        assert a._lsas.key == b._lsas.key == 0
        assert a._lsas is not b._lsas
        assert image_a.detours is not image_b.detours
        assert len(table) == 1
        plain_b = {x: dict(row) for x, row in image_b.items()}
        assert image_b.sssp(0) == spf.dijkstra_uncached(plain_b, 0)
        assert image_a.sssp(0) != image_b.sssp(0)

    def test_summed_key_collision_gets_two_entries(self):
        """Edges 0-1 and 5-11 hash to the same sum as 1-2 and 4-10, one of
        the collisions among a 6x6 unit grid's two-links-down images; the
        XORed content key tells them apart, so each keeps its own entry."""

        def image(*edges):
            adj = {}
            for u, v in edges:
                adj.setdefault(u, {})[v] = 1.0
                adj.setdefault(v, {})[u] = 1.0
            return adj

        pairs = [((0, 1), (5, 11)), ((1, 2), (4, 10))]
        summed = {sum(hash((u, v, 1.0)) for u, v in p) % 2**64 for p in pairs}
        assert len(summed) == 1
        first, second = (image(*p) for p in pairs)
        assert content_key(first) != content_key(second)
        table = SolvedImages()
        entries = [table.entry(content_key(adj), adj) for adj in (first, second)]
        assert len(table) == 2
        assert entries[0] is not entries[1]
        assert table.entry(content_key(second), dict(second)) is entries[1]

    def test_deployments_never_share(self):
        first = DgmcNetwork(ring_network(6), ProtocolConfig())
        second = DgmcNetwork(first.net, ProtocolConfig())
        for dgmc in (first, second):
            images = [router.network_image() for router in dgmc.routers.values()]
            # Converged, every router of a deployment holds one content,
            # and so one entry.
            assert len({id(image.detours) for image in images}) == 1
        assert first.routers[0].lsdb.solved is not second.routers[0].lsdb.solved
        assert (
            first.routers[0].network_image().detours
            is not second.routers[0].network_image().detours
        )

    def test_deployments_on_one_network_count_alike(self, registry_delta):
        """A deployment solves what it computes on, whatever another
        deployment on the same Network solved before it.  Floods are timed
        by hop counts, so the network's own view (shared by design) stays
        out."""
        net = grid_network(3, 4)
        counters = (
            attach.SPF_HITS,
            attach.SPF_MISSES,
            attach.SPF_INVALIDATIONS,
            attach.DIJKSTRA_RUNS,
        )
        seen = []
        for _ in range(2):
            dgmc = DgmcNetwork(net, ProtocolConfig())
            dgmc.register_symmetric(1)
            registry_delta()
            for member in (0, 5, 11):
                dgmc.inject(JoinEvent(member, 1), at=dgmc.sim.now + 1.0)
                dgmc.run()
            for up in (False, True):
                dgmc.inject(LinkEvent(5, 5, 6, up=up), at=dgmc.sim.now + 1.0)
                dgmc.run()
            delta = registry_delta()
            seen.append(tuple(delta[name] for name in counters))
        assert seen[0][1] > 0 and seen[0][2] > 0
        assert seen[0] == seen[1]

    def test_fifo_eviction_is_deterministic(self):
        """The table forgets its oldest entries past SOLVED_BOUND, whatever
        was read in between (first in, first out; not least recently
        used)."""
        table = SolvedImages()
        images = [
            {0: {1: float(w)}, 1: {0: float(w)}} for w in range(1, SOLVED_BOUND + 3)
        ]
        entries = [table.entry(content_key(adj), adj) for adj in images[:-2]]
        assert table.entry(content_key(images[0]), dict(images[0])) is entries[0]
        entries += [table.entry(content_key(adj), adj) for adj in images[-2:]]
        assert len(table) == SOLVED_BOUND
        for adj, entry in zip(images[2:], entries[2:]):
            assert table.entry(content_key(adj), adj) is entry
        for adj, entry in zip(images[:2], entries[:2]):
            assert table.entry(content_key(adj), adj) is not entry

    def test_disabled_images_share_nothing(self):
        with spfcache.disabled():
            dgmc = DgmcNetwork(ring_network(6), ProtocolConfig())
            images = [router.network_image() for router in dgmc.routers.values()]
            assert all(type(image) is dict for image in images)
            assert len({id(image) for image in images}) == len(images)
        assert len(dgmc.routers[0].lsdb.solved) == 0


class TestComponentLabels:
    """The component labels are one more memo of an image's content."""

    def test_images_of_one_content_share_one_memo(self):
        table = SolvedImages()
        a = LinkStateDatabase(6, table)
        b = LinkStateDatabase(6, table)
        for x in range(6):
            a.install(_ring_lsa(x, 1))
        for x in reversed(range(6)):
            b.install(_ring_lsa(x, 1))
        labels = spf.component_labels(a.adjacency())
        assert spf.component_labels(b.adjacency()) is labels
        assert len(set(labels.values())) == 1 and sorted(labels) == list(range(6))

    def test_a_link_failure_gets_fresh_labels(self):
        net = ring_network(6)
        before = spf.component_labels(net.spf_view())
        assert spf.component_labels(net.spf_view()) is before
        net.set_link_state(0, 1, up=False)
        net.set_link_state(3, 4, up=False)
        after = spf.component_labels(net.spf_view())
        assert after is not before
        assert len(set(before.values())) == 1
        assert {1, 2, 3} == {x for x in after if after[x] == after[1]}
        assert {4, 5, 0} == {x for x in after if after[x] == after[0]}
        assert after[0] != after[1]

    def test_a_disabled_cache_walks_every_call(self):
        net = diamond()
        with spfcache.disabled():
            view = net.spf_view()
            first = spf.component_labels(view)
            assert spf.component_labels(view) is not first
            assert spf.component_labels(view) == first
