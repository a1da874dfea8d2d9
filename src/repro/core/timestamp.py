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

What the sums cannot decide takes one pass -- over what *changed*, not
over what is stored.  At quiescence R, E and C at every switch equal the
last accepted ``T``, so a stamp is a reference to a shared, never-mutated
**base** dict plus a private **overlay** of the components written since,
each above the base's.  Two stamps on one base differ only where their
overlays do, so ``merge`` / ``geq`` walk overlays; operands on different
bases (off the wire, a resync snapshot) take the full pass.  Sharing
starts where the second fact has just proved equal content -- a ``merge``
that ends with equal sums, a ``geq`` with equal sums that holds -- by
adopting the other operand's storage, never changing content; and
:meth:`VectorTimestamp.snapshot` (the copy carried in LSAs and kept as
``old_R`` / ``C``, never mutated again, so safe to hash) first folds an
overlay that has outgrown its base.  docs/protocol-walkthrough.md, "How a
stamp is stored and compared", has the argument.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Dict, ItemsView, Iterable, List, Mapping, Tuple, Union


#: Components it costs as much to copy and walk whole as to overlay at all:
#: a stamp this small folds at any write (see ``_outgrown``).
SMALL = 16


class VectorTimestamp:
    """A sparse, sum-carrying event-count vector with the paper's partial order."""

    __slots__ = ("_base", "_over", "_sum")

    def __init__(
        self, components: Union[Mapping[int, int], Iterable[Tuple[int, int]]] = ()
    ) -> None:
        v = dict(components)
        if v and (min(v) < 0 or min(v.values()) < 0):
            raise ValueError("timestamp origins and counts must be naturals")
        if not all(v.values()):
            v = {origin: count for origin, count in v.items() if count}
        #: Shared ``{origin: non-zero count}``; no stamp ever mutates one.
        self._base: Dict[int, int] = v
        #: Private ``{origin: count}``, each count above the base's.
        self._over: Dict[int, int] = {}
        self._sum = sum(v.values())

    @classmethod
    def from_dense(cls, values: Iterable[int]) -> "VectorTimestamp":
        """The stamp whose i-th component is ``values[i]`` (the paper's tuple)."""
        values = tuple(values)
        if values and min(values) < 0:
            raise ValueError("timestamp components must be natural numbers")
        stamp = cls.__new__(cls)  # already canonical: skip __init__'s checks
        stamp._base = dict(compress(enumerate(values), values))
        stamp._over = {}
        stamp._sum = sum(values)
        return stamp

    def _flat(self) -> Mapping[int, int]:
        """Every stored component in one mapping: the base itself when
        nothing was written since, so never mutate the result."""
        return {**self._base, **self._over} if self._over else self._base

    def _share(self, other: "VectorTimestamp") -> None:
        """Adopt the storage of ``other``, whose content equals ours."""
        self._base = other._base
        self._over = other._over.copy()

    def _outgrown(self) -> bool:
        """Whether the overlay is due to be folded into a fresh base.

        Every delivery walks an overlay, every receiver takes a full pass
        per fold: least in sum near ``sqrt(2 * len(base))`` entries.
        """
        return len(self._over) ** 2 > 2 * max(len(self._base) - SMALL, 0)

    # -- element access ------------------------------------------------------

    def __len__(self) -> int:
        """Number of *stored* (non-zero) components."""
        base = self._base
        stored = len(base)
        if self._over:
            for origin in self._over:
                if origin not in base:
                    stored += 1
        return stored

    def __getitem__(self, i: int) -> int:
        return self._over.get(i) or self._base.get(i, 0)

    #: Implicit zeros never end: without this, ``tuple(stamp)`` would fall
    #: back to ``__getitem__`` and loop forever.  Use :meth:`items`,
    #: :meth:`total` or :meth:`dense`.
    __iter__ = None

    def __setitem__(self, i: int, value: int) -> None:
        if i < 0 or value < 0:
            raise ValueError("timestamp origins and counts must be naturals")
        over = self._over
        floor = self._base.get(i, 0)
        self._sum += value - over.get(i, floor)
        if value > floor:
            over[i] = value
        elif value == floor:
            over.pop(i, None)
        else:
            # Below the shared base (never the protocol: R, E and M only
            # grow): leave it for a private one.  Zeros stay implicit so
            # ``==`` / ``hash`` see one form only.
            flat = {**self._base, **over}
            if value:
                flat[i] = value
            else:
                del flat[i]
            self._base, self._over = flat, {}

    def increment(self, i: int, by: int = 1) -> None:
        """``T[i] += by`` (the paper's ``R[x] = R[x] + 1``)."""
        self[i] = self[i] + by

    def items(self) -> ItemsView[int, int]:
        """The stored ``(origin, count)`` pairs, in no particular order."""
        return self._flat().items()

    def total(self) -> int:
        """Sum of components: total events covered."""
        return self._sum

    def span(self) -> int:
        """Highest origin with a non-zero component, plus one (0 when empty)."""
        top = max(self._base, default=-1)
        if self._over:
            for origin in self._over:
                if origin > top:
                    top = origin
        return top + 1

    def dense(self, n: int) -> List[int]:
        """The first ``n`` components as a list (must cover :meth:`span`)."""
        values = list(map(self._base.get, range(n), repeat(0)))
        if self._over:
            for origin, count in self._over.items():
                if origin < n:
                    values[origin] = count
        if sum(values) != self._sum:  # stored counts are positive: one was cut
            raise ValueError(f"stamp has components beyond index {n - 1}")
        return values

    # -- partial order ---------------------------------------------------------

    def geq(self, other: "VectorTimestamp") -> bool:
        """Component-wise ``self >= other``."""
        base, over = self._base, self._over
        if base is other._base:
            if self._sum <= other._sum:
                # Smaller sum refutes dominance; equal sums make it equality.
                return self._sum == other._sum and over == other._over
            # Off its overlay ``other`` is the base, which we dominate.
            have_of, floor = over.get, base.get
            for origin, count in other._over.items():
                if (have_of(origin) or floor(origin, 0)) < count:
                    return False
            return True
        if self._sum < other._sum:
            return False
        mine = {**base, **over} if over else base  # _flat(), inlined
        theirs = {**other._base, **other._over} if other._over else other._base
        if self._sum == other._sum:
            if mine != theirs:
                return False
            if not other._outgrown():  # else the next snapshot folds it away
                self._share(other)
            return True
        try:
            for origin, count in theirs.items():
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
        base, over = self._base, self._over
        gained = 0
        if base is other._base:
            floor = base.get
            for origin, count in other._over.items():
                have = over.get(origin) or floor(origin, 0)
                if count > have:
                    over[origin] = count
                    gained += count - have
            self._sum += gained
            return gained > 0
        # Flattened (_flat(), inlined) for the walk only: gains land on the
        # overlay, so the base stays the shared one.
        mine = {**base, **over} if over else base
        theirs = {**other._base, **other._over} if other._over else other._base
        # Equal already -- the second of two equal-stamp proposals -- is one
        # C-level compare, not a walk that gains nothing.
        if self._sum != other._sum or mine != theirs:
            have_of = mine.get
            for origin, count in theirs.items():
                have = have_of(origin, 0)
                if count > have:
                    over[origin] = count
                    gained += count - have
            self._sum += gained
        if self._sum == other._sum:  # Figure 5's accept: now equal in content
            self._base = other._base
            self._over = other._over.copy()
        return gained > 0

    def assign(self, other: "VectorTimestamp") -> None:
        """Overwrite all components (``E = R``)."""
        self._share(other)
        self._sum = other._sum

    # -- conversion --------------------------------------------------------------

    def snapshot(self) -> "VectorTimestamp":
        """An independent copy, as carried in LSAs (``old_R = R``): the base
        shared, the overlay copied -- after folding one that has outgrown."""
        if self._outgrown():
            self._base, self._over = self._flat(), {}
        snap = type(self).__new__(type(self))
        snap._base = self._base
        snap._over = self._over.copy()
        snap._sum = self._sum
        return snap

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorTimestamp):
            return NotImplemented
        if self._sum != other._sum:
            return False
        if self._base is other._base:
            return self._over == other._over
        return self._flat() == other._flat()

    def __hash__(self) -> int:
        return hash(frozenset(self._flat().items()))

    def __repr__(self) -> str:
        return f"VectorTimestamp({dict(sorted(self.items()))})"


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
