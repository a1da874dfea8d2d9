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

What the sums cannot decide takes one pass over the stored components of
the dominated side.  R, E and M are mutated in place;
:meth:`VectorTimestamp.snapshot` is the copy carried in LSAs and kept as
``old_R`` / ``C``, which by convention is never mutated again (and is
therefore safe to hash).
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Dict, ItemsView, Iterable, List, Mapping, Tuple, Union


class VectorTimestamp:
    """A sparse, sum-carrying event-count vector with the paper's partial order."""

    __slots__ = ("_v", "_sum")

    def __init__(
        self, components: Union[Mapping[int, int], Iterable[Tuple[int, int]]] = ()
    ) -> None:
        v = dict(components)
        if v and (min(v) < 0 or min(v.values()) < 0):
            raise ValueError("timestamp origins and counts must be naturals")
        if not all(v.values()):
            v = {origin: count for origin, count in v.items() if count}
        self._v: Dict[int, int] = v
        self._sum = sum(v.values())

    @classmethod
    def _of(cls, stored: Dict[int, int], total: int) -> "VectorTimestamp":
        """Adopt an already-canonical ``{origin: non-zero count}`` dict."""
        stamp = cls.__new__(cls)
        stamp._v = stored
        stamp._sum = total
        return stamp

    @classmethod
    def from_dense(cls, values: Iterable[int]) -> "VectorTimestamp":
        """The stamp whose i-th component is ``values[i]`` (the paper's tuple)."""
        values = tuple(values)
        if values and min(values) < 0:
            raise ValueError("timestamp components must be natural numbers")
        return cls._of(dict(compress(enumerate(values), values)), sum(values))

    # -- element access ------------------------------------------------------

    def __len__(self) -> int:
        """Number of *stored* (non-zero) components."""
        return len(self._v)

    def __getitem__(self, i: int) -> int:
        return self._v.get(i, 0)

    #: Implicit zeros never end: without this, ``tuple(stamp)`` would fall
    #: back to ``__getitem__`` and loop forever.  Use :meth:`items`,
    #: :meth:`total` or :meth:`dense`.
    __iter__ = None

    def __setitem__(self, i: int, value: int) -> None:
        if value < 0:
            raise ValueError("timestamp components must be natural numbers")
        self._sum += value - self._v.get(i, 0)
        if value:
            self._v[i] = value
        else:
            # Zeros stay implicit so ``==`` / ``hash`` see one form only.
            self._v.pop(i, None)

    def increment(self, i: int, by: int = 1) -> None:
        """``T[i] += by`` (the paper's ``R[x] = R[x] + 1``)."""
        self[i] = self._v.get(i, 0) + by

    def items(self) -> ItemsView[int, int]:
        """The stored ``(origin, count)`` pairs, in no particular order."""
        return self._v.items()

    def total(self) -> int:
        """Sum of components: total events covered."""
        return self._sum

    def span(self) -> int:
        """Highest origin with a non-zero component, plus one (0 when empty)."""
        return max(self._v, default=-1) + 1

    def dense(self, n: int) -> List[int]:
        """The first ``n`` components as a list (must cover :meth:`span`)."""
        values = list(map(self._v.get, range(n), repeat(0)))
        if sum(values) != self._sum:  # stored counts are positive: one was cut
            raise ValueError(f"stamp has components beyond index {n - 1}")
        return values

    # -- partial order ---------------------------------------------------------

    def geq(self, other: "VectorTimestamp") -> bool:
        """Component-wise ``self >= other``."""
        if self._sum <= other._sum:
            # Smaller sum refutes dominance; equal sums make it equality.
            return self._sum == other._sum and self._v == other._v
        mine = self._v
        try:
            for origin, count in other._v.items():
                if mine[origin] < count:
                    return False
        except KeyError:  # an implicit zero below a stored (positive) count
            return False
        return True

    def gt(self, other: "VectorTimestamp") -> bool:
        """Strict order: ``self >= other`` and ``self != other``."""
        return self._sum > other._sum and self.geq(other)

    def equals(self, other: "VectorTimestamp") -> bool:
        return self == other

    def concurrent_with(self, other: "VectorTimestamp") -> bool:
        """Neither dominates: the timestamps are incomparable."""
        return not self.geq(other) and not other.geq(self)

    # -- updates ---------------------------------------------------------------

    def merge(self, other: "VectorTimestamp") -> bool:
        """Component-wise max in place (``E[y] = max(E[y], T[y])``).

        Returns True when any component changed.  Afterwards ``self >=
        other`` holds, so ``other >= self`` is just equality of the sums.
        """
        mine = self._v
        if self._sum == other._sum and mine == other._v:
            return False
        get = mine.get
        gained = 0
        for origin, count in other._v.items():
            have = get(origin, 0)
            if count > have:
                mine[origin] = count
                gained += count - have
        self._sum += gained
        return gained > 0

    def assign(self, other: "VectorTimestamp") -> None:
        """Overwrite all components (``E = R``)."""
        self._v = other._v.copy()
        self._sum = other._sum

    # -- conversion --------------------------------------------------------------

    def snapshot(self) -> "VectorTimestamp":
        """An independent copy, as carried in LSAs (``old_R = R``)."""
        return self._of(self._v.copy(), self._sum)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VectorTimestamp):
            return self._sum == other._sum and self._v == other._v
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._v.items()))

    def __repr__(self) -> str:
        return f"VectorTimestamp({dict(sorted(self._v.items()))})"


#: Annotation name for a stamp held as an immutable snapshot (T, C, old_R).
Stamp = VectorTimestamp

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
