"""Dense-literal spelling of sparse stamps for the tests.

``S(1, 0, 2)`` is the stamp the paper would write ``(1, 0, 2)``.  Stamps
compare equal to stamps only, so tests port their tuple literals through
this helper instead of comparing against tuples.
"""

from __future__ import annotations

from repro.core import timestamp
from repro.core.timestamp import Stamp


def S(*components: int) -> Stamp:
    return Stamp.from_dense(components)


#: The intern table and the write table (module-level dicts, never
#: rebound, so these references stay live).
TABLES = (timestamp._VALUES, timestamp._WRITES)


def fresh_tables() -> None:
    """Empty the intern and write tables, so an identity assertion does not
    depend on which old entry an earlier test left at the front of a FIFO."""
    for table in TABLES:
        table.clear()


def value_of(stamp: Stamp) -> tuple:
    """The interned value ``stamp`` refers to -- compare with ``is``.

    The one place the tests reach into a stamp's storage (see "How a stamp
    is stored and compared" in docs/protocol-walkthrough.md).
    """
    return stamp._v
