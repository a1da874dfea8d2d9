"""Tests for the link-state database and the two-way-check network image."""

from __future__ import annotations

import random

import pytest

from repro.lsr.lsa import NonMcLsa, RouterLsa
from repro.lsr.lsdb import MAX_PENDING_DELTAS, LinkStateDatabase
from repro.lsr.spf import dijkstra_uncached
from repro.lsr.spfcache import SolvedImages, content_key
from repro.topo.generators import waxman_network


def lsa(origin, seqnum, links):
    return RouterLsa(origin, seqnum, tuple(links))


class TestInstall:
    def test_first_install_accepted(self):
        db = LinkStateDatabase(2, SolvedImages())
        assert db.install(lsa(0, 1, [(1, 1.0, True)]))
        assert db.get(0).seqnum == 1

    def test_newer_replaces(self):
        db = LinkStateDatabase(2, SolvedImages())
        db.install(lsa(0, 1, [(1, 1.0, True)]))
        assert db.install(lsa(0, 2, [(1, 1.0, False)]))
        assert db.get(0).seqnum == 2

    def test_stale_rejected(self):
        db = LinkStateDatabase(2, SolvedImages())
        db.install(lsa(0, 5, [(1, 1.0, True)]))
        assert not db.install(lsa(0, 3, [(1, 1.0, False)]))
        assert db.get(0).seqnum == 5

    def test_same_seqnum_rejected(self):
        db = LinkStateDatabase(2, SolvedImages())
        db.install(lsa(0, 1, []))
        assert not db.install(lsa(0, 1, []))

    def test_complete(self):
        db = LinkStateDatabase(2, SolvedImages())
        db.install(lsa(0, 1, []))
        assert not db.complete()
        db.install(lsa(1, 1, []))
        assert db.complete()


class TestImage:
    def test_two_way_check_requires_both_sides(self):
        db = LinkStateDatabase(2, SolvedImages())
        db.install(lsa(0, 1, [(1, 1.0, True)]))
        assert db.adjacency()[0] == {}  # 1 has not advertised yet
        db.install(lsa(1, 1, [(0, 1.0, True)]))
        assert db.adjacency()[0] == {1: 1.0}
        assert db.adjacency()[1] == {0: 1.0}

    def test_down_on_either_side_hides_link(self):
        db = LinkStateDatabase(2, SolvedImages())
        db.install(lsa(0, 1, [(1, 1.0, True)]))
        db.install(lsa(1, 1, [(0, 1.0, False)]))
        assert db.adjacency()[0] == {}

    def test_delay_averaged(self):
        db = LinkStateDatabase(2, SolvedImages())
        db.install(lsa(0, 1, [(1, 1.0, True)]))
        db.install(lsa(1, 1, [(0, 3.0, True)]))
        assert db.adjacency()[0][1] == pytest.approx(2.0)

    def test_image_cache_invalidated_by_install(self):
        db = LinkStateDatabase(2, SolvedImages())
        db.install(lsa(0, 1, [(1, 1.0, True)]))
        db.install(lsa(1, 1, [(0, 1.0, True)]))
        first = db.adjacency()
        assert first[0] == {1: 1.0}
        db.install(lsa(0, 2, [(1, 1.0, False)]))
        assert db.adjacency()[0] == {}

    def test_image_cached_between_installs(self):
        db = LinkStateDatabase(2, SolvedImages())
        db.install(lsa(0, 1, [(1, 1.0, True)]))
        db.install(lsa(1, 1, [(0, 1.0, True)]))
        assert db.adjacency() is db.adjacency()

    @staticmethod
    def _square_db():
        """4-switch ring 0-1-2-3-0 with unit delays, fully installed."""
        db = LinkStateDatabase(4, SolvedImages())
        for origin, nbrs in {0: (1, 3), 1: (0, 2), 2: (1, 3), 3: (0, 2)}.items():
            db.install(lsa(origin, 1, [(n, 1.0, True) for n in nbrs]))
        return db

    def test_refresh_install_keeps_image(self):
        db = self._square_db()
        image = db.adjacency()
        image.sssp(0)
        # Pure seqnum refresh: identical link content.
        db.install(lsa(0, 2, [(1, 1.0, True), (3, 1.0, True)]))
        assert not db.last_install_changed_image
        assert db.adjacency() is image

    def test_single_link_change_matches_full_run(self):
        db = self._square_db()
        image = db.adjacency()
        for x in range(4):
            image.sssp(x)
        # Switch 0 re-advertises the 0--1 link slower.
        db.install(lsa(0, 2, [(1, 3.0, True), (3, 1.0, True)]))
        assert db.last_install_changed_image
        image2 = db.adjacency()
        assert image2 is not image
        for x in range(4):
            assert image2.sssp(x) == dijkstra_uncached(dict(image2), x)


def rows(image) -> str:
    """Every row of an image, iteration order included."""
    return repr({node: dict(nbrs) for node, nbrs in image.items()})


class _Adverts:
    """What each origin currently advertises; emits its next LSA."""

    def __init__(self, rng: random.Random, n: int) -> None:
        self.rng = rng
        self.n = n
        pairs = {(x, (x + 1) % n) for x in range(n)}
        pairs |= {tuple(rng.sample(range(n), 2)) for _ in range(n)}
        #: origin -> {neighbor: [delay, up]}, one entry per side of a link.
        self.links = {x: {} for x in range(n)}
        for u, v in pairs:
            delay = rng.choice((0.5, 1.0, 1.0, 2.0))
            self.links[u][v] = [delay, True]
            self.links[v][u] = [delay, True]
        self.seqnum = dict.fromkeys(range(n), 0)

    def emit(self, origin: int) -> RouterLsa:
        self.seqnum[origin] += 1
        return RouterLsa(
            origin,
            self.seqnum[origin],
            tuple(
                (nbr, delay, up)
                for nbr, (delay, up) in sorted(self.links[origin].items())
            ),
        )

    def mutate(self, origin: int) -> RouterLsa:
        """One side of one link goes down, comes up, or changes delay."""
        side = self.links[origin][self.rng.choice(sorted(self.links[origin]))]
        if self.rng.random() < 0.3:
            side[0] = self.rng.choice((0.5, 1.0, 1.5, 2.0, 3.0))
        else:
            side[1] = not side[1]
        return self.emit(origin)


class TestPatchedImage:
    """A rebuild that recomputes only the rows its delta names yields the
    image, and the shortest paths, the full scan would: for delta runs
    below, at and past :data:`MAX_PENDING_DELTAS` (past it, the rebuild
    is the full scan)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_patched_rebuild_equals_full_scan(self, seed):
        rng = random.Random(seed)
        n = 12
        adverts = _Adverts(rng, n)
        db = LinkStateDatabase(n, SolvedImages())
        # Two origins are unknown at first: one arrives after its peers,
        # the other never does (its peers' links to it stay one-way).
        late, never = rng.sample(range(n), 2)
        known = [x for x in range(n) if x not in (late, never)]
        for origin in known:
            db.install(adverts.emit(origin))
        db.adjacency()
        for step in range(60):
            if step == 30:
                db.install(adverts.emit(late))
                known.append(late)
            # A run of image changes below, at or past the cap.
            run = (rng.randrange(1, MAX_PENDING_DELTAS), MAX_PENDING_DELTAS,
                   MAX_PENDING_DELTAS + 1)[step % 3]
            changes = 0
            while changes < run:
                db.install(adverts.mutate(rng.choice(known)))
                changes += db.last_install_changed_image
            pending = db._pending_delta
            if step != 30:  # at 30 the late arrival's own changes come first
                tracked = None if pending is None else len(pending)
                assert tracked == (run if run <= MAX_PENDING_DELTAS else None), step
            image = db.adjacency()
            fresh = LinkStateDatabase(n, SolvedImages())
            for lsa_ in db.entries().values():
                fresh.install(lsa_)
            assert rows(image) == rows(fresh.adjacency()), step
            plain = {x: dict(row) for x, row in fresh.adjacency().items()}
            for source in (0, late):
                assert repr(image.sssp(source)) == repr(
                    dijkstra_uncached(plain, source)
                ), step


class TestContentKey:
    """The key an install updates from its link delta equals the key a
    full scan of the resulting image computes."""

    @pytest.mark.parametrize("seed", range(4))
    def test_delta_key_equals_full_scan(self, seed):
        rng = random.Random(seed)
        n = 12
        adverts = _Adverts(rng, n)
        db = LinkStateDatabase(n, SolvedImages())
        for origin in range(n):
            db.install(adverts.emit(origin))
        for step in range(60):
            for _ in range(rng.choice((1, 1, 2, MAX_PENDING_DELTAS + 1))):
                db.install(adverts.mutate(rng.randrange(n)))
            image = db.adjacency()
            assert db._lsas.key == content_key(image), step


def _stream(seed: int, n: int, rounds: int):
    """The boot LSAs and then one list of LSAs per round of a seeded link
    history: fail and heal of a link (both sides), seqnum-only refreshes,
    a delay change and a one-sided down advertisement."""
    rng = random.Random(seed)
    adverts = _Adverts(rng, n)
    boot = [adverts.emit(x) for x in range(n)]
    out = []
    failed = None
    for r in range(rounds):
        kind = r % 5
        if kind == 0:  # fail a link that is up on both sides
            u = rng.randrange(n)
            v = rng.choice(sorted(adverts.links[u]))
            adverts.links[u][v][1] = adverts.links[v][u][1] = False
            failed = (u, v)
            out.append([adverts.emit(u), adverts.emit(v)])
        elif kind == 1:  # heal it
            u, v = failed
            adverts.links[u][v][1] = adverts.links[v][u][1] = True
            out.append([adverts.emit(v), adverts.emit(u)])
        elif kind == 2:  # seqnum-only refreshes
            out.append([adverts.emit(x) for x in rng.sample(range(n), 3)])
        elif kind == 3:  # one side changes its delay
            u = rng.randrange(n)
            side = adverts.links[u][rng.choice(sorted(adverts.links[u]))]
            side[0] = rng.choice((0.5, 1.5, 3.0))
            out.append([adverts.emit(u)])
        else:  # one side advertises a link down, then up again
            u = rng.randrange(n)
            side = adverts.links[u][rng.choice(sorted(adverts.links[u]))]
            side[1] = False
            first = adverts.emit(u)
            side[1] = True
            out.append([first, adverts.emit(u)])
    return boot, out


def _deliveries(seed: int, boot, rounds):
    """One database's arrival order: every LSA of a round arrives, in a
    seeded order, in that round or the next, so LSAs overtake each other
    and an older one can arrive after a newer (and is rejected)."""
    rng = random.Random(seed)
    late = []
    order = [list(boot)]
    for lsas in rounds:
        now = list(late)
        late = []
        for item in lsas:
            (late if rng.random() < 0.3 else now).append(item)
        rng.shuffle(now)
        order.append(now)
    order.append(late)
    return order


def _observe(db):
    return db.last_install_changed_image, db._pending_delta


class TestSharedLsaSets:
    """Databases that share a deployment's LSA-set memo behave exactly
    like databases that each own one: every install result, image and
    content key matches at every step."""

    @pytest.mark.parametrize("seed", range(3))
    def test_shared_memo_matches_private_tables(self, seed):
        n, k = 10, 4
        boot, rounds = _stream(seed, n, 90)
        table = SolvedImages()
        shared = [LinkStateDatabase(n, table) for _ in range(k)]
        private = [LinkStateDatabase(n, SolvedImages()) for _ in range(k)]
        orders = [_deliveries(seed * 100 + i, boot, rounds) for i in range(k)]
        rng = random.Random(seed)
        for step in range(len(orders[0])):
            for i in range(k):
                for item in orders[i][step]:
                    ours, theirs = shared[i].install(item), private[i].install(item)
                    assert ours == theirs, (step, i)
                    assert _observe(shared[i]) == _observe(private[i]), (step, i)
                if rng.random() < 0.6:  # images are built lazily, when used
                    ours, theirs = shared[i].adjacency(), private[i].adjacency()
                    assert rows(ours) == rows(theirs), (step, i)
                    assert shared[i]._lsas.key == private[i]._lsas.key
                    assert shared[i]._lsas.key == content_key(ours)
                    # A database's LSA set is its own stored LSAs.
                    assert shared[i]._lsas.lsas == shared[i].entries()
            # Equal LSAs, reached in any order, are one set.
            held = [db for db in shared if db._lsas is not None]
            for db in held[1:]:
                if db.entries() == held[0].entries():
                    assert db._lsas is held[0]._lsas, step
        # The stream ends with every database holding every LSA: one set,
        # one image object, while the private tables hold k of each.
        images = [db.adjacency() for db in shared]
        assert all(image is images[0] for image in images)
        assert len({id(db._lsas) for db in private}) == k

    def test_traded_seqnums_key_apart(self):
        """Two origins' seqnums trading places give two LSA-set keys, so
        both sets keep a table slot (a sum of tuple hashes collides here)."""
        n = 6

        def ring(x, seqnum):
            return lsa(x, seqnum, [((x - 1) % n, 1.0, True), ((x + 1) % n, 1.0, True)])

        table = SolvedImages()
        a, b = LinkStateDatabase(n, table), LinkStateDatabase(n, table)
        for db, installs in ((a, ((1, 2), (3, 2), (3, 3))), (b, ((1, 2), (1, 3), (3, 2)))):
            for x in range(n):
                db.install(ring(x, 1))
            db.adjacency()
            for x, seqnum in installs:
                db.install(ring(x, seqnum))
        assert a._lsas.lsas_key != b._lsas.lsas_key
        for db in (a, b):
            assert table._sets[db._lsas.lsas_key] is db._lsas

    def test_colliding_lsa_sets_share_nothing(self):
        """Equal (origin, seqnum) pairs with different links -- the LSA
        set keys collide, as after a cold boot -- never share a set, a
        move or an image."""
        n = 6
        table = SolvedImages()
        a, b, c = (LinkStateDatabase(n, table) for _ in range(3))
        fast = [lsa(x, 1, [((x - 1) % n, 1.0, True), ((x + 1) % n, 1.0, True)])
                for x in range(n)]
        slow = [lsa(x, 1, [((x - 1) % n, 2.0, True), ((x + 1) % n, 2.0, True)])
                for x in range(n)]
        for item in fast:
            a.install(item)
            c.install(item)
        for item in slow:
            b.install(item)
        a.adjacency(), b.adjacency(), c.adjacency()
        assert a._lsas is c._lsas
        assert a._lsas.lsas_key == b._lsas.lsas_key
        assert b._lsas is not a._lsas
        assert rows(b.adjacency()) != rows(a.adjacency())
        # One move key, two LSAs: a's memoised move never serves c.
        cut = lsa(0, 2, [(1, 1.0, False), (5, 1.0, True)])
        other = lsa(0, 2, [(1, 1.0, True), (5, 1.0, False)])
        a.install(cut)
        c.install(other)
        assert a._lsas is not c._lsas
        assert a._lsas.lsas_key == c._lsas.lsas_key
        for db in (a, b, c):
            reference = LinkStateDatabase(n, SolvedImages())
            for item in db.entries().values():
                reference.install(item)
            assert rows(db.adjacency()) == rows(reference.adjacency())
            assert db._lsas.key == content_key(reference.adjacency())
        assert a.adjacency()[0] == {5: 1.0}
        assert c.adjacency()[0] == {1: 1.0}


def assert_symmetric(image) -> None:
    for u, row in image.items():
        for v, w in row.items():
            assert image[v][u] == w, (u, v)


class TestSymmetricImage:
    """Every image is symmetric, weights included: a topology computation
    reads a tree edge from one side only (``GreedyDynamicSteiner.update``),
    which is the old both-sides edge map's value only because of this."""

    @pytest.mark.parametrize("seed", range(4))
    def test_lsdb_images_are_symmetric(self, seed):
        rng = random.Random(seed)
        n = 12
        adverts = _Adverts(rng, n)
        db = LinkStateDatabase(n, SolvedImages())
        for origin in range(n):
            db.install(adverts.emit(origin))
        for _ in range(60):
            # One side at a time: the two advertised delays disagree.
            db.install(adverts.mutate(rng.randrange(n)))
            assert_symmetric(db.adjacency())

    @pytest.mark.parametrize("seed", range(4))
    def test_network_views_are_symmetric(self, seed):
        rng = random.Random(seed)
        net = waxman_network(20, rng)
        keys = sorted(link.key for link in net.links(include_down=True))
        for _ in range(30):
            net.set_link_state(*rng.choice(keys), up=rng.random() < 0.5)
            assert_symmetric(net.spf_view())
            assert_symmetric(net.spf_view(include_down=True))


class TestRouterLsa:
    def test_link_map(self):
        l = lsa(0, 1, [(1, 2.0, True), (3, 4.0, False)])
        assert l.link_map() == {1: (2.0, True), 3: (4.0, False)}

    def test_is_newer_than_cross_origin_rejected(self):
        with pytest.raises(ValueError):
            lsa(0, 1, []).is_newer_than(lsa(1, 1, []))


class TestNonMcLsa:
    def test_flag_is_false(self):
        wrapper = NonMcLsa(0, lsa(0, 1, []))
        assert wrapper.is_mc is False
        assert wrapper.description.origin == 0
