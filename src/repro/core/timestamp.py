"""Vector timestamps: the D-GMC consistency mechanism.

"A timestamp T is an n-tuple of natural numbers, where n is the number of
switches in the network.  The x-th component of T, denoted by T[x],
specifies how many events have been heard from switch x.  Given two
timestamps A and B, we say that A >= B if a_i >= b_i for all i; A > B if
A >= B and A != B."  (Section 3)

:class:`VectorTimestamp` (``Stamp`` for short) is the one representation
of that n-tuple, from switch state to the wire: only the non-zero
components are stored (``{origin: count}``; every other component is an
implicit zero, so a stamp has no length to mismatch) together with their
sum.  The partial order is the paper's, evaluated exactly but cheaply
through two facts about vectors of naturals:

* ``a >= b  =>  sum(a) >= sum(b)`` -- each component of ``a`` is at least
  that of ``b``, so the sums are ordered too.  Read backwards it refutes
  ``a >= b`` from the two sums alone.
* ``a >= b and sum(a) == sum(b)  =>  a == b`` -- the non-negative
  differences ``a_i - b_i`` sum to zero, so each is zero.  With equal
  sums, dominance *is* equality, and strict dominance is impossible.

A stamp holds a reference to an immutable, **interned** value: one object
per distinct content, so equal stamps compare by identity first.  Every
update rebinds the reference.  Work is shared across a flood's receivers
one layer up, a whole ReceiveLSA() drain at a time
(:class:`repro.core.switch.ReceiveMemo`).  Each table here forgets its
oldest entry past :data:`BOUND`, which costs a recomputation, never an
answer: equality is still by content.
docs/protocol-walkthrough.md, "How a stamp is stored and compared", has the
argument.
"""

from __future__ import annotations

from itertools import compress, repeat
from types import MappingProxyType
from typing import Any, Dict, Hashable, ItemsView, Iterable, List, Mapping, Optional, Tuple, Union


#: Entries each table here, in repro.core.state and in a ReceiveMemo keeps
#: before it forgets its oldest (FIFO, as SNIPPETS.md Snippet 2 bounds its
#: dedup set).  Over 40 seeded rounds of the e2e churn workloads ReceiveMemo
#: and the write table miss no more often at 8 entries than at 4096.
BOUND = 256

#: A stamp's value: ``(counts, total, hash)`` -- the dict ``{origin:
#: non-zero count}``, its sum, and ``hash(frozenset(counts.items()))``.
#: Interned and shared, so never mutated.  ``counts`` is a plain dict of
#: ints, which the garbage collector does not track (a dict subclass it
#: would), so a collection visits three slots per value, not every
#: component of every value a deployment keeps.
Value = Tuple[Dict[int, int], int, int]


def remember(table: dict, key: Hashable, entry: Any) -> Any:
    """``table[key] = entry``, then forget the oldest entries past
    :data:`BOUND` (a dict keeps insertion order, so its first key is the
    oldest)."""
    table[key] = entry
    while len(table) > BOUND:
        del table[next(iter(table))]
    return entry


#: hash -> the interned value with that hash (a colliding content simply
#: stays uninterned).  Equal stamps are one object, so most compares end at
#: ``a is b`` and the write table hits across records.  It answers 66% of
#: its 4.5 lookups per event at n=400 (62% of 4.0 on ``churn_dense_n64``);
#: without it ``op_ms_p50`` read +3.0% at n=400 and +1.6% at n=64 (500
#: rounds each, alternating with it on, in one process).
_VALUES: Dict[int, Value] = {}
#: ``(id(a), i, count) -> (a, a with component i set to count)``; an entry
#: holds its operand, so no other object can reuse that ``id`` meanwhile.
#: EventHandler() writes R, E and M of one shared value.  It answers 82% of
#: its 10.9 lookups per event at n=400 (78% of 9.0 on ``churn_dense_n64``);
#: without it ``op_ms_p50`` read +4.9% at n=400 and +4.0% at n=64 (as
#: above).
_WRITES: Dict[Tuple[int, int, int], Tuple[Value, Value]] = {}


def _intern(counts: Dict[int, int], total: int) -> Value:
    """The value of ``counts`` (just built, not yet shared): the one
    interned before with this content, or a new one."""
    key = hash(frozenset(counts.items()))
    found = _VALUES.get(key)
    if found is not None and found[1] == total and found[0] == counts:
        return found
    value = (counts, total, key)
    if found is None:
        remember(_VALUES, key, value)
    return value


def _dominates(a: Value, b: Value) -> bool:
    """Component-wise ``a >= b``, one pass over ``b``."""
    mine = a[0]
    try:
        for origin, count in b[0].items():
            if mine[origin] < count:
                return False
    except KeyError:  # an implicit zero below a stored (positive) count
        return False
    return True


def _max(a: Value, b: Value) -> Value:
    """Component-wise max, one pass over ``b``: ``a`` itself when it gains
    nothing, ``b`` itself when it reaches ``b``'s sum (fact 2: it dominates
    ``b`` at equal sums, so it is ``b``), else an interned new value."""
    mine = a[0]
    gains = {}
    gained = 0
    for origin, count in b[0].items():
        had = mine.get(origin, 0)
        if count > had:
            gains[origin] = count
            gained += count - had
    if not gained:
        return a
    if a[1] + gained == b[1]:
        return b
    return _intern({**mine, **gains}, a[1] + gained)


class VectorTimestamp:
    """A sparse, sum-carrying event-count vector with the paper's partial order."""

    __slots__ = ("_v",)

    def __init__(
        self, components: Union[Mapping[int, int], Iterable[Tuple[int, int]]] = ()
    ) -> None:
        counts = dict(components)
        if counts and (min(counts) < 0 or min(counts.values()) < 0):
            raise ValueError("timestamp origins and counts must be naturals")
        if not all(counts.values()):
            counts = {origin: count for origin, count in counts.items() if count}
        self._v = _intern(counts, sum(counts.values()))

    @classmethod
    def from_dense(cls, values: Iterable[int]) -> "VectorTimestamp":
        """The stamp whose i-th component is ``values[i]`` (the paper's tuple)."""
        values = tuple(values)
        if values and min(values) < 0:
            raise ValueError("timestamp components must be natural numbers")
        stamp = cls.__new__(cls)  # already canonical: skip __init__'s checks
        stamp._v = _intern(dict(compress(enumerate(values), values)), sum(values))
        return stamp

    # -- element access ------------------------------------------------------

    def __len__(self) -> int:
        """Number of *stored* (non-zero) components."""
        return len(self._v[0])

    def __getitem__(self, i: int) -> int:
        return self._v[0].get(i, 0)

    #: Implicit zeros never end: without this, ``tuple(stamp)`` would fall
    #: back to ``__getitem__`` and loop forever.  Use :meth:`items`,
    #: :meth:`total` or :meth:`dense`.
    __iter__ = None

    def __setitem__(self, i: int, value: int) -> None:
        v = self._v
        key = (id(v), i, value)
        hit = _WRITES.get(key)
        if hit is None:
            if i < 0 or value < 0:
                raise ValueError("timestamp origins and counts must be naturals")
            counts = v[0].copy()
            if value:
                counts[i] = value
            else:  # zeros stay implicit, so ``==`` / ``hash`` see one form
                counts.pop(i, None)
            total = v[1] - v[0].get(i, 0) + value
            hit = remember(_WRITES, key, (v, _intern(counts, total)))
        self._v = hit[1]

    def increment(self, i: int, by: int = 1) -> None:
        """``T[i] += by`` (the paper's ``R[x] = R[x] + 1``)."""
        self[i] = self[i] + by

    def items(self) -> ItemsView[int, int]:
        """The stored ``(origin, count)`` pairs, in no particular order."""
        return self._v[0].items()

    def counts(self) -> Mapping[int, int]:
        """The stored ``{origin: count}`` pairs, read-only: ``counts().get(x,
        0)`` is component ``x``, with no Python call per read."""
        return MappingProxyType(self._v[0])

    def total(self) -> int:
        """Sum of components: total events covered."""
        return self._v[1]

    def span(self) -> int:
        """Highest origin with a non-zero component, plus one (0 when empty)."""
        return max(self._v[0], default=-1) + 1

    def dense(self, n: int) -> List[int]:
        """The first ``n`` components as a list (must cover :meth:`span`)."""
        counts, total, _ = self._v
        values = list(map(counts.get, range(n), repeat(0)))
        if sum(values) != total:  # stored counts are positive: one was cut
            raise ValueError(f"stamp has components beyond index {n - 1}")
        return values

    # -- partial order ---------------------------------------------------------

    def geq(self, other: "VectorTimestamp") -> bool:
        """Component-wise ``self >= other``."""
        a, b = self._v, other._v
        if a is b:
            return True
        if a[1] <= b[1]:
            # Smaller sum refutes dominance; equal sums make it equality.
            return a[1] == b[1] and a[0] == b[0]
        return _dominates(a, b)

    def gt(self, other: "VectorTimestamp") -> bool:
        """Strict order: ``self >= other`` and ``self != other``."""
        return self._v[1] > other._v[1] and self.geq(other)

    def concurrent_with(self, other: "VectorTimestamp") -> bool:
        """Neither dominates: the timestamps are incomparable."""
        return not self.geq(other) and not other.geq(self)

    # -- updates ---------------------------------------------------------------

    def merge(self, other: "VectorTimestamp") -> bool:
        """Component-wise max in place (``E[y] = max(E[y], T[y])``).

        Returns True when any component changed.  Afterwards ``self >=
        other`` holds, so ``other >= self`` is just equality of the sums.
        """
        a, b = self._v, other._v
        if a is b:
            return False
        self._v = _max(a, b)
        return self._v is not a

    def assign(self, other: "VectorTimestamp") -> None:
        """Overwrite all components (``E = R``)."""
        self._v = other._v

    # -- conversion --------------------------------------------------------------

    def snapshot(self) -> "VectorTimestamp":
        """An independent, writable copy: it shares the immutable value, so
        it costs one reference."""
        snap = VectorTimestamp.__new__(VectorTimestamp)
        snap._v = self._v
        return snap

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorTimestamp):
            return NotImplemented
        a, b = self._v, other._v
        return a is b or (a[1] == b[1] and a[0] == b[0])

    def __hash__(self) -> int:
        return self._v[2]

    def __repr__(self) -> str:
        return f"VectorTimestamp({dict(sorted(self.items()))})"


#: Annotation name for a stamp held as an immutable snapshot (T, C, old_R).
Stamp = VectorTimestamp


class FrozenStamp(VectorTimestamp):
    """A stamp that refuses in-place writes: the form an arbitration record
    (:class:`repro.core.state.Arbitration`) holds R, E, C and M in, since
    every switch in the same state shares the one record.  Read it like any
    stamp; to change it, write a :meth:`snapshot` and rebind."""

    __slots__ = ()

    def _shared(self, *args: Any) -> None:
        raise TypeError("this stamp is shared: write a snapshot() and rebind it")

    __setitem__ = merge = assign = _shared  # type: ignore[assignment]


def frozen(stamp: Stamp, held: Optional[FrozenStamp] = None) -> FrozenStamp:
    """``stamp`` as a :class:`FrozenStamp`: itself when it already is one,
    ``held`` when that holds ``stamp``'s very value (so a record rebuilt
    from snapshots of another keeps its stamps, and records compare by
    identity), else a new wrapper."""
    if type(stamp) is FrozenStamp:
        return stamp
    if held is not None and held._v is stamp._v:
        return held
    out = FrozenStamp.__new__(FrozenStamp)
    out._v = stamp._v
    return out


#: The order on snapshots, spelled as functions.  (These three names, and
#: the methods ``geq`` / ``gt`` / ``merge`` / ``assign`` / ``snapshot``, are
#: the layer boundary benchmarks/e2e/trace.py wraps by name.)
stamp_geq = VectorTimestamp.geq
stamp_gt = VectorTimestamp.gt


def stamp_max(a: Stamp, b: Stamp) -> Stamp:
    """Component-wise max of two stamps, as a new stamp."""
    out = a.snapshot()
    out.merge(b)
    return out
