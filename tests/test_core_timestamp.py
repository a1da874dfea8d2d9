"""Vector timestamps: the sparse stamp against the paper's dense n-tuple.

The dense algebra of Section 3 -- component-wise compares over tuples --
lives on here as the oracle (:func:`d_geq` and friends); every operation
of :class:`~repro.core.timestamp.VectorTimestamp` is checked against it
on random vectors that are mostly zeros *and* on fully dense ones.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.timestamp import (
    Stamp,
    VectorTimestamp,
    stamp_geq,
    stamp_gt,
    stamp_max,
)
from tests.stamps import base_of

# -- the dense reference ---------------------------------------------------------


def d_geq(a, b):
    return all(x >= y for x, y in zip(a, b))


def d_gt(a, b):
    return d_geq(a, b) and tuple(a) != tuple(b)


def d_max(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def sparse(values) -> VectorTimestamp:
    return VectorTimestamp.from_dense(values)


def dense(stamp: VectorTimestamp, n: int) -> tuple:
    return tuple(stamp.dense(n))


#: Mostly zeros (young connection) or no zeros at all (every switch originated).
component = st.one_of(
    st.sampled_from([0, 0, 0, 0, 0, 1, 1, 2, 7]), st.integers(1, 20)
)


def vectors_of(n: int):
    return st.one_of(
        st.lists(component, min_size=n, max_size=n),
        st.lists(st.integers(1, 20), min_size=n, max_size=n),
    )


vectors = st.integers(1, 12).flatmap(vectors_of)


def tuples_of_vectors(k: int):
    return st.integers(1, 12).flatmap(
        lambda n: st.tuples(*[vectors_of(n)] * k)
    )


pair_of_vectors = tuples_of_vectors(2)


class TestConstruction:
    def test_zero_initialized(self):
        t = VectorTimestamp()
        assert dense(t, 4) == (0, 0, 0, 0)
        assert len(t) == 0 and t.total() == 0 and t.span() == 0

    def test_from_values(self):
        t = sparse([1, 0, 3])
        assert dense(t, 3) == (1, 0, 3)
        assert t == VectorTimestamp({0: 1, 2: 3}) == VectorTimestamp([(2, 3), (0, 1)])
        # Only non-zero components are stored; len() counts those.
        assert len(t) == 2 and t.span() == 3 and sorted(t.items()) == [(0, 1), (2, 3)]
        assert VectorTimestamp({5: 0}) == VectorTimestamp()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sparse([1, -1])
        with pytest.raises(ValueError):
            VectorTimestamp({-1: 2})
        t = VectorTimestamp()
        with pytest.raises(ValueError):
            t[0] = -5

    def test_rejects_a_negative_origin_at_the_write(self):
        """``v[-1] = 2`` used to store it: ``span()`` then said 0 with one
        stored component and the encoders failed later, inside the pump."""
        t = sparse([1, 2])
        with pytest.raises(ValueError):
            t[-1] = 2
        with pytest.raises(ValueError):
            t.increment(-1)
        with pytest.raises(ValueError):
            t.snapshot().increment(-3, by=2)
        assert t == sparse([1, 2]) and len(t) == 2 and t.span() == 2 and t.total() == 3

    def test_not_iterable(self):
        """Implicit zeros never end: iteration must fail, not spin."""
        with pytest.raises(TypeError):
            tuple(sparse([1, 2]))
        with pytest.raises(TypeError):
            sum(sparse([1, 2]))

    def test_dense_must_cover_the_span(self):
        with pytest.raises(ValueError):
            sparse([0, 0, 1]).dense(2)


class TestMutation:
    def test_increment(self):
        t = VectorTimestamp()
        t.increment(1)
        t.increment(1, by=2)
        assert dense(t, 3) == (0, 3, 0)
        assert t.total() == 3

    def test_setitem_getitem(self):
        t = VectorTimestamp()
        t[1] = 7
        assert t[1] == 7 and t[0] == 0 and t[400] == 0
        t[1] = 0  # back to an implicit zero: the entry is gone
        assert len(t) == 0 and t.total() == 0
        assert t == VectorTimestamp() and hash(t) == hash(VectorTimestamp())

    def test_assign(self):
        t = sparse([9, 9, 9])
        source = sparse([4, 0, 6])
        t.assign(source)
        assert dense(t, 3) == (4, 0, 6) and t.total() == 10
        t.increment(1)
        assert dense(source, 3) == (4, 0, 6)

    def test_merge_is_componentwise_max(self):
        t = sparse([1, 5, 0])
        changed = t.merge(sparse([3, 2, 0]))
        assert changed
        assert dense(t, 3) == (3, 5, 0) and t.total() == 8
        assert not t.merge(VectorTimestamp())
        assert not t.merge(sparse([3, 5]))

    def test_merge_length_mismatch(self):
        """Stamps have no length: absent components are zeros."""
        short, long = sparse([1, 2]), sparse([0, 3, 0, 4])
        assert short.merge(long)
        assert dense(short, 4) == (1, 3, 0, 4)
        assert not long.merge(sparse([0, 3]))


class TestOrder:
    def test_geq_examples(self):
        a = sparse([2, 3])
        assert a.geq(sparse([2, 3]))
        assert a.geq(sparse([1, 3]))
        assert a.geq(VectorTimestamp())
        assert not a.geq(sparse([3, 0]))
        assert not a.geq(sparse([0, 0, 1]))  # larger sum, but a zero below a one

    def test_gt_is_strict(self):
        a = sparse([2, 3])
        assert not a.gt(sparse([2, 3]))
        assert a.gt(sparse([2, 2]))

    def test_concurrent(self):
        a = sparse([1, 0])
        assert a.concurrent_with(sparse([0, 1]))
        assert a.concurrent_with(sparse([0, 5]))
        assert not a.concurrent_with(VectorTimestamp())

    @given(vectors)
    def test_reflexive(self, v):
        assert sparse(v).geq(sparse(v))
        assert not sparse(v).gt(sparse(v))

    @given(pair_of_vectors)
    def test_antisymmetry(self, pair):
        a, b = pair
        if sparse(a).geq(sparse(b)) and sparse(b).geq(sparse(a)):
            assert a == b

    @given(tuples_of_vectors(3))
    def test_transitivity(self, triple):
        a, b, c = map(sparse, triple)
        if a.geq(b) and b.geq(c):
            assert a.geq(c)

    @given(pair_of_vectors)
    def test_merge_is_least_upper_bound(self, pair):
        a, b = pair
        m = sparse(a)
        m.merge(sparse(b))
        assert m.geq(sparse(a)) and m.geq(sparse(b))
        # least: any upper bound dominates the merge
        ub = sparse(d_max(a, b))
        assert ub.geq(m) and m.geq(ub)


class TestDifferential:
    """Every operation against the dense oracle."""

    @given(pair_of_vectors)
    def test_order(self, pair):
        a, b = pair
        sa, sb = sparse(a), sparse(b)
        assert sa.geq(sb) == stamp_geq(sa, sb) == d_geq(a, b)
        assert sa.gt(sb) == stamp_gt(sa, sb) == d_gt(a, b)
        assert sa.equals(sb) == (sa == sb) == (a == b)
        assert sa.concurrent_with(sb) == (not d_geq(a, b) and not d_geq(b, a))

    @given(pair_of_vectors)
    def test_merge_and_max(self, pair):
        a, b = pair
        n = len(a)
        expected = d_max(a, b)
        assert dense(stamp_max(sparse(a), sparse(b)), n) == expected
        merged, other = sparse(a), sparse(b)
        changed = merged.merge(other)
        assert changed == (expected != tuple(a))
        assert dense(merged, n) == expected
        assert merged.total() == sum(expected)
        assert dense(other, n) == tuple(b)  # the argument is left alone
        # Figure 5 line 11 after line 10: once E >= T, ``T >= E`` is a sum compare.
        assert other.geq(merged) == (other.total() == merged.total())

    @given(vectors, st.lists(st.tuples(st.integers(0, 11), st.integers(0, 3))))
    def test_mutation_keeps_the_canonical_form(self, v, writes):
        """However a vector was reached, ``==``, ``hash`` and the sum agree."""
        n = 12
        ref = list(v) + [0] * (n - len(v))
        stamp = sparse(v)
        for i, value in writes:
            if value == 3:
                stamp.increment(i)
                ref[i] += 1
            else:
                stamp[i] = value
                ref[i] = value
        fresh = sparse(ref)
        assert stamp == fresh and hash(stamp) == hash(fresh)
        assert stamp.total() == sum(ref)
        assert len(stamp) == sum(1 for x in ref if x)
        assert dense(stamp.snapshot(), n) == tuple(ref)


#: A write to one member of a family: (member, origin, value); value 4 means
#: "increment".  0 and small values land below components already stored.
family_writes = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 11), st.integers(0, 4)), max_size=30
)


def write(stamp: VectorTimestamp, ref: list, origin: int, value: int) -> None:
    if value == 4:
        stamp.increment(origin)
        ref[origin] += 1
    else:
        stamp[origin] = value
        ref[origin] = value


class TestSharedBase:
    """The same oracle, on operands that share a base -- or just stopped to.

    ``snapshot()`` hands out the base by reference, so the hazard is
    aliasing: a write, merge or rebase on one stamp showing through
    another.  Every case ends by re-reading *all* the stamps involved.
    """

    N = 12

    def family(self, v):
        """A stamp and two snapshots of it, with their dense references."""
        root = sparse(v)
        stamps = [root, root.snapshot(), root.snapshot()]
        assert base_of(stamps[1]) is base_of(stamps[2]) is base_of(root)
        return stamps, [list(v) + [0] * (self.N - len(v)) for _ in stamps]

    def check(self, stamps, refs):
        for stamp, ref in zip(stamps, refs):
            fresh = sparse(ref)
            assert dense(stamp, self.N) == tuple(ref)
            assert stamp == fresh and fresh == stamp and hash(stamp) == hash(fresh)
            assert stamp.total() == sum(ref) and len(stamp) == sum(map(bool, ref))
            assert stamp.span() == fresh.span()
            assert sorted(stamp.items()) == sorted(fresh.items())
            assert [stamp[i] for i in range(self.N)] == ref

    @given(vectors, family_writes)
    def test_order_and_merge_after_unrelated_writes(self, v, writes):
        stamps, refs = self.family(v)
        for member, origin, value in writes:
            write(stamps[member], refs[member], origin, value)
        self.check(stamps, refs)
        for a, ra in zip(stamps, refs):
            for b, rb in zip(stamps, refs):
                assert a.geq(b) == stamp_geq(a, b) == d_geq(ra, rb)
                assert a.gt(b) == stamp_gt(a, b) == d_gt(ra, rb)
                assert (a == b) == (ra == rb)
                assert (hash(a) == hash(b)) or ra != rb
                self.check(stamps, refs)  # a compare may rebase, never rewrite
        for i, j in ((0, 1), (2, 0), (1, 2)):
            changed = stamps[i].merge(stamps[j])
            expected = list(d_max(refs[i], refs[j]))
            assert changed == (expected != refs[i])
            refs[i] = expected
            self.check(stamps, refs)
            assert stamps[j].geq(stamps[i]) == (sum(refs[j]) == sum(refs[i]))

    @given(vectors, family_writes, family_writes)
    def test_operands_on_different_bases_both_ways_round(self, v, first, second):
        """One side is re-read from its dense form, as off the wire."""
        stamps, refs = self.family(v)
        for member, origin, value in first:
            write(stamps[member], refs[member], origin, value)
        wire = [sparse(ref) for ref in refs]
        for member, origin, value in second:
            write(wire[member], refs[member], origin, value)
        for a, ra in zip(stamps, [dense(s, self.N) for s in stamps]):
            for b, rb in zip(wire, refs):
                assert a.geq(b) == d_geq(ra, rb) and b.geq(a) == d_geq(rb, ra)
                assert a.gt(b) == d_gt(ra, rb) and b.gt(a) == d_gt(rb, ra)
                assert (a == b) == (tuple(ra) == tuple(rb)) == (b == a)
        self.check(wire, refs)
        for ours, theirs in zip(stamps, wire):
            mine, far = dense(ours, self.N), dense(theirs, self.N)
            there = theirs.snapshot()
            assert there.merge(ours) == (d_max(mine, far) != far)
            assert ours.merge(theirs) == (d_max(mine, far) != mine)
            assert dense(ours, self.N) == dense(there, self.N) == d_max(mine, far)
        self.check(wire, refs)

    @given(vectors, st.lists(st.integers(0, 11), min_size=1, max_size=40))
    def test_overlay_past_the_fold(self, v, origins):
        """Enough writes that ``snapshot()`` folds: nobody's content moves."""
        stamps, refs = self.family(v)
        old_base = base_of(stamps[0])
        kept = dict(old_base)
        for origin in origins:
            write(stamps[1], refs[1], origin, 4)
        snap = stamps[1].snapshot()
        again = snap.snapshot()  # snapshot of a snapshot
        assert base_of(again) is base_of(snap) is base_of(stamps[1])
        assert old_base == kept  # a fold builds a base, it never edits one
        stamps += [snap, again]
        refs += [list(refs[1]), list(refs[1])]
        self.check(stamps, refs)
        write(again, refs[4], origins[0], 4)
        write(stamps[1], refs[1], origins[-1], 4)
        self.check(stamps, refs)
        assert snap.geq(stamps[0]) and again.gt(snap) and stamps[1].gt(stamps[2])
        assert again.concurrent_with(stamps[1]) == (origins[0] != origins[-1])
        self.check(stamps, refs)

    def test_the_fold_is_paid_once(self):
        """An overlay that has outgrown its base folds at ``snapshot()``;
        the next snapshot shares the fresh base and copies nothing big."""
        r = sparse([1] * 8)
        first = r.snapshot()
        for origin in range(8, 20):
            r.increment(origin)
        assert base_of(r) is base_of(first)  # writes never move a base
        folded = r.snapshot()
        assert base_of(folded) is base_of(r) is not base_of(first)
        assert base_of(r.snapshot()) is base_of(folded)
        assert len(folded) == 20 and folded.gt(first) and first == sparse([1] * 8)

    def test_assign_shares_and_stays_independent(self):
        source = sparse([4, 0, 6])
        source.increment(1)
        t = sparse([9, 9, 9])
        t.assign(source)
        assert base_of(t) is base_of(source) and t == sparse([4, 1, 6])
        t.increment(1)
        source.increment(2)
        assert t == sparse([4, 2, 6]) and source == sparse([4, 1, 7])
        assert t.total() == 12 and source.total() == 12 and t.concurrent_with(source)

    def test_a_write_below_the_base_leaves_the_base_to_the_others(self):
        root = sparse([3, 5, 2])
        a, b = root.snapshot(), root.snapshot()
        a[1] = 4  # lowers a component the shared base holds at 5
        b[2] = 0  # and one to (implicit) zero
        assert root == sparse([3, 5, 2]) and a == sparse([3, 4, 2]) and b == sparse([3, 5])
        assert (len(a), len(b), a.total(), b.total()) == (3, 2, 9, 8)
        assert root.gt(a) and root.gt(b) and a.concurrent_with(b)
        a[1] = 5
        b[2] = 2
        assert a == root == b and hash(a) == hash(root) == hash(b)
        # Raised above the base and lowered back onto it: the overlay entry goes.
        c = root.snapshot()
        c[0] = 7
        c[0] = 3
        assert c == root and base_of(c) is base_of(root) and c.geq(root) and root.geq(c)

    def test_equal_content_is_where_sharing_starts(self):
        """The two adoption points: an accept-shaped merge, and ``R >= E``."""
        t = sparse([2, 0, 1, 4])
        e = VectorTimestamp({0: 2, 3: 3})  # off another base, one event behind
        assert e.merge(t) and e.total() == t.total()
        assert base_of(e) is base_of(t) and e == t
        r = VectorTimestamp({0: 2, 2: 1, 3: 4})
        assert r.geq(e) and base_of(r) is base_of(e)
        # Sharing is storage only: each still moves alone.
        r.increment(1)
        e.increment(0)
        assert t == sparse([2, 0, 1, 4]) and r == sparse([2, 1, 1, 4]) and e == sparse([3, 0, 1, 4])
        # No adoption without equality, whatever the sums say.
        other = sparse([1, 1, 1, 4])
        assert not other.geq(t) and base_of(other) is not base_of(t)


class StampFamily(RuleBasedStateMachine):
    """Random ``snapshot`` / write / ``merge`` / compare sequences on a
    family of stamps, each mirrored by a plain dict: no operation on one
    stamp may change the content, the sum or the hash of another."""

    ORIGINS = st.integers(0, 9)

    def __init__(self):
        super().__init__()
        self.stamps = [VectorTimestamp()]
        self.oracles = [{}]

    members = st.runner().flatmap(lambda self: st.integers(0, len(self.stamps) - 1))

    @precondition(lambda self: len(self.stamps) < 8)
    @rule(i=members)
    def snapshot(self, i):
        self.stamps.append(self.stamps[i].snapshot())
        self.oracles.append(dict(self.oracles[i]))

    @precondition(lambda self: len(self.stamps) < 8)
    @rule(i=members)
    def off_the_wire(self, i):
        """An equal stamp on a base of its own."""
        self.stamps.append(VectorTimestamp(self.oracles[i]))
        self.oracles.append(dict(self.oracles[i]))

    @rule(i=members, origin=ORIGINS, by=st.integers(1, 3))
    def increment(self, i, origin, by):
        self.stamps[i].increment(origin, by)
        self.oracles[i][origin] = self.oracles[i].get(origin, 0) + by

    @rule(i=members, origin=ORIGINS, value=st.integers(0, 6))
    def store(self, i, origin, value):
        self.stamps[i][origin] = value
        if value:
            self.oracles[i][origin] = value
        else:
            self.oracles[i].pop(origin, None)

    @rule(i=members, j=members)
    def merge(self, i, j):
        mine, theirs = self.oracles[i], self.oracles[j]
        merged = {k: max(mine.get(k, 0), theirs.get(k, 0)) for k in mine.keys() | theirs.keys()}
        assert self.stamps[i].merge(self.stamps[j]) == (merged != mine)
        self.oracles[i] = merged

    @rule(i=members, j=members)
    def assign(self, i, j):
        self.stamps[i].assign(self.stamps[j])
        self.oracles[i] = dict(self.oracles[j])

    @rule(i=members, j=members)
    def compare(self, i, j):
        mine, theirs = self.oracles[i], self.oracles[j]
        geq = all(mine.get(k, 0) >= count for k, count in theirs.items())
        assert self.stamps[i].geq(self.stamps[j]) == geq
        assert self.stamps[i].gt(self.stamps[j]) == (geq and mine != theirs)
        assert (self.stamps[i] == self.stamps[j]) == (mine == theirs)

    @invariant()
    def every_stamp_reads_as_its_oracle(self):
        for stamp, oracle in zip(self.stamps, self.oracles):
            assert dict(stamp.items()) == oracle
            assert stamp.total() == sum(oracle.values()) and len(stamp) == len(oracle)
            assert hash(stamp) == hash(VectorTimestamp(oracle))
            assert all(stamp[k] == oracle.get(k, 0) for k in range(10))


StampFamily.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestStampFamily = StampFamily.TestCase


class TestSumLemmas:
    """The two facts that let sums decide most compares (see the module)."""

    @given(pair_of_vectors)
    def test_dominance_orders_the_sums(self, pair):
        a, b = pair
        if d_geq(a, b):
            assert sum(a) >= sum(b)

    @given(pair_of_vectors)
    def test_dominance_with_equal_sums_is_equality(self, pair):
        a, b = pair
        if d_geq(a, b) and sum(a) == sum(b):
            assert a == b

    @given(vectors, st.data())
    def test_equal_sums_without_equality_are_concurrent(self, v, data):
        """The case the lemmas turn into O(1): move one event elsewhere."""
        i = data.draw(st.sampled_from([k for k, x in enumerate(v) if x] or [None]))
        if i is None:
            return
        moved = list(v) + [0]
        moved[i] -= 1
        moved[data.draw(st.integers(0, len(v)).filter(lambda j: j != i))] += 1
        a, b = sparse(v), sparse(moved)
        assert a.total() == b.total()
        assert a.concurrent_with(b) and not a.geq(b) and not b.gt(a)


class TestMisc:
    def test_copy_is_independent(self):
        a = sparse([1, 2])
        b = a.snapshot()
        b.increment(0)
        assert dense(a, 2) == (1, 2) and a.total() == 3
        assert dense(b, 2) == (2, 2) and b.total() == 4

    def test_equality_with_tuples_and_lists(self):
        """``==`` is between stamps only (dense literals go through
        ``from_dense``), so it stays consistent with ``hash``."""
        a = sparse([1, 2])
        assert a == sparse([1, 2, 0, 0])
        assert a != sparse([1, 3])
        assert a != (1, 2) and a != [1, 2]

    def test_hash_is_canonical(self):
        seen = {sparse([1, 0, 2]): "x"}
        built = VectorTimestamp()
        built.increment(2, by=2)
        built.increment(0)
        assert seen[built] == "x"

    def test_total(self):
        assert sparse([1, 2, 3]).total() == 6

    def test_equals_method(self):
        assert sparse([1, 2]).equals(sparse([1, 2]))
        assert not sparse([1, 2]).equals(sparse([2, 1]))

    def test_stamp_is_the_one_type(self):
        assert Stamp is VectorTimestamp


class TestStampHelpers:
    def test_stamp_geq_gt(self):
        assert stamp_geq(sparse((2, 2)), sparse((1, 2)))
        assert not stamp_geq(sparse((2, 2)), sparse((3, 0)))
        assert stamp_gt(sparse((2, 2)), sparse((1, 2)))
        assert not stamp_gt(sparse((2, 2)), sparse((2, 2)))

    def test_stamp_max(self):
        a, b = sparse((1, 5)), sparse((3, 2))
        assert stamp_max(a, b) == sparse((3, 5))
        assert a == sparse((1, 5)) and b == sparse((3, 2))

    def test_length_mismatch(self):
        """Different stored lengths compare as vectors padded with zeros."""
        assert stamp_geq(sparse((1, 2)), sparse((1,)))
        assert not stamp_geq(sparse((1,)), sparse((1, 2)))
        assert stamp_max(sparse((1,)), sparse((0, 2))) == sparse((1, 2))
