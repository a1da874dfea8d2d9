"""SPF cache: correctness vs uncached, invalidation, and determinism."""

from __future__ import annotations

import random

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
from repro.lsr.spfcache import SpfCache
from repro.obs import attach
from repro.topo.generators import grid_network, waxman_network
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
            assert spf.eccentricity(view, src) == spf.eccentricity(plain, src)

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
        assert delta[attach.SPF_FULL_RUNS] == 1

    def test_repeated_path_queries_solve_sssp_once(self, small_waxman):
        view = small_waxman.spf_view()
        before = spf.RUN_COUNTER.count
        for target in small_waxman.switches():
            spf.shortest_path(view, 0, target)
        assert spf.RUN_COUNTER.count - before == 1

    def test_routing_table_and_eccentricity_share_the_sssp(self):
        view = diamond().spf_view()
        before = spf.RUN_COUNTER.count
        spf.routing_table(view, 0)
        spf.eccentricity(view, 0)
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
        """Cold solve, warm hit, one-link install, multi-link install:
        each event is written once and read through the registry."""
        lsa = TestInvalidation._lsa
        db = LinkStateDatabase(3)
        db.install(lsa(0, 1, [(1, 1.0, True), (2, 1.0, True)]))
        db.install(lsa(1, 1, [(0, 1.0, True), (2, 1.0, True)]))
        db.install(lsa(2, 1, [(0, 1.0, True), (1, 1.0, True)]))
        spf_samples = (
            attach.SPF_HITS,
            attach.SPF_MISSES,
            attach.SPF_INVALIDATIONS,
            attach.SPF_FULL_RUNS,
            attach.SPF_ISPF_REPAIRS,
            attach.SPF_ISPF_FALLBACKS,
            attach.DIJKSTRA_RUNS,
        )

        def step():
            delta = registry_delta()
            return tuple(delta[name] for name in spf_samples), delta[
                attach.SPF_RELAXATIONS
            ]

        registry_delta()
        db.adjacency().sssp(0)  # cold: one miss, one full Dijkstra
        counts, relaxed = step()
        assert counts == (0, 1, 0, 1, 0, 0, 1)
        assert relaxed == 6  # three settled nodes, two live edges each

        db.adjacency().sssp(0)  # warm: one hit, no work
        assert step() == ((1, 0, 0, 0, 0, 0, 0), 0)

        # One changed link: the image is invalidated once and the miss is
        # repaired incrementally, with no Dijkstra run.
        db.install(lsa(0, 2, [(1, 5.0, True), (2, 1.0, True)]))
        db.adjacency().sssp(0)
        counts, relaxed = step()
        assert counts == (0, 1, 1, 0, 1, 0, 0)
        assert relaxed > 0

        # Two changed links in one LSA still replay as an ordered chain.
        db.install(lsa(0, 3, [(1, 1.0, True), (2, 4.0, True)]))
        db.adjacency().sssp(0)
        counts, _ = step()
        assert counts == (0, 1, 1, 0, 1, 0, 0)

        # Past the repair horizon the history is known but unusable: the
        # miss falls back to exactly one full run.
        for k in range(spfcache._MAX_REPAIR_CHAIN + 1):
            db.install(lsa(0, 4 + k, [(1, 2.0 + k, True), (2, 4.0, True)]))
        db.adjacency().sssp(0)
        counts, _ = step()
        assert counts == (0, 1, 1, 1, 0, 1, 1)


class TestInvalidation:
    @staticmethod
    def _lsa(origin, seqnum, links):
        return RouterLsa(origin, seqnum, tuple(links))

    def test_lsdb_install_invalidates_snapshot(self, registry_delta):
        db = LinkStateDatabase(2)
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
        db = LinkStateDatabase(2)
        db.install(self._lsa(0, 1, [(1, 1.0, True)]))
        db.install(self._lsa(1, 1, [(0, 1.0, True)]))
        image = db.adjacency()
        image.sssp(0)
        registry_delta()
        assert db.install(self._lsa(0, 2, [(1, 1.0, True)]))  # same content
        assert not db.last_install_changed_image
        assert db.adjacency() is image
        assert registry_delta()[attach.SPF_INVALIDATIONS] == 0

    def test_lsdb_single_link_install_repairs_instead_of_rerunning(
        self, registry_delta
    ):
        db = LinkStateDatabase(3)
        db.install(self._lsa(0, 1, [(1, 1.0, True), (2, 1.0, True)]))
        db.install(self._lsa(1, 1, [(0, 1.0, True), (2, 1.0, True)]))
        db.install(self._lsa(2, 1, [(0, 1.0, True), (1, 1.0, True)]))
        db.adjacency().sssp(0)
        registry_delta()
        assert db.install(self._lsa(0, 2, [(1, 5.0, True), (2, 1.0, True)]))
        assert db.last_install_changed_image
        dist, parent = db.adjacency().sssp(0)
        assert registry_delta()[attach.SPF_ISPF_REPAIRS] == 1
        assert dist == spf.dijkstra_uncached(dict(db.adjacency()), 0)[0]
        with spfcache.ispf_disabled():
            # The toggle restores the old recompute-from-scratch path.
            db2 = LinkStateDatabase(2)
            db2.install(self._lsa(0, 1, [(1, 1.0, True)]))
            db2.install(self._lsa(1, 1, [(0, 1.0, True)]))
            db2.adjacency().sssp(0)
            db2.install(self._lsa(0, 2, [(1, 2.0, True)]))
            db2.adjacency().sssp(0)
            assert registry_delta()[attach.SPF_ISPF_REPAIRS] == 0

    def test_lsdb_stale_install_keeps_snapshot(self):
        db = LinkStateDatabase(2)
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
            db = LinkStateDatabase(2)
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
