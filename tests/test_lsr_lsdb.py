"""Tests for the link-state database and the two-way-check network image."""

from __future__ import annotations

import random

import pytest

from repro.lsr.ispf import MAX_REPAIR_CHAIN
from repro.lsr.lsa import NonMcLsa, RouterLsa
from repro.lsr.lsdb import LinkStateDatabase
from repro.lsr.spfcache import GLOBAL_STATS


def lsa(origin, seqnum, links):
    return RouterLsa(origin, seqnum, tuple(links))


class TestInstall:
    def test_first_install_accepted(self):
        db = LinkStateDatabase(2)
        assert db.install(lsa(0, 1, [(1, 1.0, True)]))
        assert db.get(0).seqnum == 1

    def test_newer_replaces(self):
        db = LinkStateDatabase(2)
        db.install(lsa(0, 1, [(1, 1.0, True)]))
        assert db.install(lsa(0, 2, [(1, 1.0, False)]))
        assert db.get(0).seqnum == 2

    def test_stale_rejected(self):
        db = LinkStateDatabase(2)
        db.install(lsa(0, 5, [(1, 1.0, True)]))
        assert not db.install(lsa(0, 3, [(1, 1.0, False)]))
        assert db.get(0).seqnum == 5

    def test_same_seqnum_rejected(self):
        db = LinkStateDatabase(2)
        db.install(lsa(0, 1, []))
        assert not db.install(lsa(0, 1, []))

    def test_complete(self):
        db = LinkStateDatabase(2)
        db.install(lsa(0, 1, []))
        assert not db.complete()
        db.install(lsa(1, 1, []))
        assert db.complete()


class TestImage:
    def test_two_way_check_requires_both_sides(self):
        db = LinkStateDatabase(2)
        db.install(lsa(0, 1, [(1, 1.0, True)]))
        assert db.adjacency()[0] == {}  # 1 has not advertised yet
        db.install(lsa(1, 1, [(0, 1.0, True)]))
        assert db.adjacency()[0] == {1: 1.0}
        assert db.adjacency()[1] == {0: 1.0}

    def test_down_on_either_side_hides_link(self):
        db = LinkStateDatabase(2)
        db.install(lsa(0, 1, [(1, 1.0, True)]))
        db.install(lsa(1, 1, [(0, 1.0, False)]))
        assert db.adjacency()[0] == {}

    def test_delay_averaged(self):
        db = LinkStateDatabase(2)
        db.install(lsa(0, 1, [(1, 1.0, True)]))
        db.install(lsa(1, 1, [(0, 3.0, True)]))
        assert db.adjacency()[0][1] == pytest.approx(2.0)

    def test_image_cache_invalidated_by_install(self):
        db = LinkStateDatabase(2)
        db.install(lsa(0, 1, [(1, 1.0, True)]))
        db.install(lsa(1, 1, [(0, 1.0, True)]))
        first = db.adjacency()
        assert first[0] == {1: 1.0}
        db.install(lsa(0, 2, [(1, 1.0, False)]))
        assert db.adjacency()[0] == {}

    def test_image_cached_between_installs(self):
        db = LinkStateDatabase(2)
        db.install(lsa(0, 1, [(1, 1.0, True)]))
        db.install(lsa(1, 1, [(0, 1.0, True)]))
        assert db.adjacency() is db.adjacency()


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
    image the full scan would, and still feeds incremental SPF."""

    @pytest.mark.parametrize("seed", range(6))
    def test_patched_rebuild_equals_full_scan(self, seed):
        rng = random.Random(seed)
        n = 12
        adverts = _Adverts(rng, n)
        db = LinkStateDatabase(n)
        # Two origins are unknown at first: one arrives after its peers,
        # the other never does (its peers' links to it stay one-way).
        late, never = rng.sample(range(n), 2)
        known = [x for x in range(n) if x not in (late, never)]
        for origin in known:
            db.install(adverts.emit(origin))
        tracked = degraded = single = 0
        for step in range(80):
            if step == 30:
                db.install(adverts.emit(late))
                known.append(late)
            elif step % 10 == 9:
                # More image changes than the repair horizon tracks.
                affecting = 0
                while affecting <= MAX_REPAIR_CHAIN:
                    db.install(adverts.mutate(rng.choice(known)))
                    affecting += db.last_install_changed_image
            elif step:
                db.install(adverts.mutate(rng.choice(known)))
            stale = db._image is None and db._prev_image is not None
            delta = db._pending_delta if stale else None
            tracked += delta is not None
            degraded += stale and delta is None
            repairs = GLOBAL_STATS.ispf_repairs
            image = db.adjacency()
            fresh = LinkStateDatabase(n)
            for lsa_ in db.entries().values():
                fresh.install(lsa_)
            assert rows(image) == rows(fresh.adjacency()), step
            # Solving on every generation keeps the repair chain rooted.
            assert image.sssp(0) == fresh.adjacency().sssp(0)
            if delta is not None and len(delta) == 1:
                single += 1
                assert GLOBAL_STATS.ispf_repairs == repairs + 1
        assert tracked and degraded and single


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
