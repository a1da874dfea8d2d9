"""Vector timestamps: the sparse stamp against the paper's dense n-tuple.

The dense algebra of Section 3 -- component-wise compares over tuples --
lives on here as the oracle (:func:`d_geq` and friends); every operation
of :class:`~repro.core.timestamp.VectorTimestamp` is checked against it
on random vectors that are mostly zeros *and* on fully dense ones.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.timestamp import (
    Stamp,
    VectorTimestamp,
    stamp_geq,
    stamp_gt,
    stamp_max,
)

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
