"""Dense-literal spelling of sparse stamps for the tests.

``S(1, 0, 2)`` is the stamp the paper would write ``(1, 0, 2)``.  Stamps
compare equal to stamps only, so tests port their tuple literals through
this helper instead of comparing against tuples.
"""

from __future__ import annotations

from repro.core.timestamp import Stamp


def S(*components: int) -> Stamp:
    return Stamp.from_dense(components)


def base_of(stamp: Stamp) -> dict:
    """The shared base dict ``stamp`` sits on -- compare with ``is``.

    The one place the tests reach into a stamp's storage (see "How a stamp
    is stored and compared" in docs/protocol-walkthrough.md).
    """
    return stamp._base
