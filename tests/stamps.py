"""Dense-literal spelling of sparse stamps for the tests.

``S(1, 0, 2)`` is the stamp the paper would write ``(1, 0, 2)``.  Stamps
compare equal to stamps only, so tests port their tuple literals through
this helper instead of comparing against tuples.
"""

from __future__ import annotations

from repro.core.timestamp import Stamp


def S(*components: int) -> Stamp:
    return Stamp.from_dense(components)
