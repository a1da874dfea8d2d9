"""The install log: compact columns, and ``stale-install`` checked once per install.

:class:`~repro.core.invariants.InstallLog` is the one place an install is
recorded, a whole install class at a time (``record_class``; ``record``
is a class of one).  It compares each switch's new stamp with the last one
the same switch installed for the connection and saves a detail when the
new one is strictly dominated; ``check_invariants`` reads those details
instead of walking the history.
"""

from __future__ import annotations

import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DgmcNetwork, JoinEvent, LeaveEvent, ProtocolConfig
from repro.core.invariants import (
    STALE_INSTALL,
    InstallLog,
    InstallRecord,
    Violation,
    check_invariants,
)
from repro.topo.generators import ring_network
from tests.stamps import S

DETAIL = (
    "switch 3 replaced installed stamp VectorTimestamp({0: 2, 1: 1}) with "
    "dominated stamp VectorTimestamp({0: 1, 1: 1}) (proposer 4)"
)


class TestRecord:
    def test_dominated_stamp_fires_once(self):
        log = InstallLog()
        log.record(1.0, 3, 7, S(2, 1), 3)
        log.record(2.0, 3, 7, S(1, 1), 4)
        assert log.stale == {7: [DETAIL]}
        log.record(3.0, 3, 7, S(1, 1), 4)  # equal to the last install
        assert log.stale == {7: [DETAIL]}

    def test_equal_incomparable_and_unrelated_stamps_do_not_fire(self):
        log = InstallLog()
        log.record(1.0, 3, 7, S(2, 1), 3)
        log.record(2.0, 3, 7, S(2, 1), 3)  # equal
        log.record(3.0, 3, 7, S(0, 5), 3)  # incomparable, larger sum
        log.record(4.0, 3, 7, S(4, 0), 3)  # incomparable, smaller sum
        log.record(5.0, 4, 7, S(1, 0), 3)  # dominated, but another switch's
        log.record(6.0, 3, 8, S(1, 0), 3)  # dominated, but another connection's
        assert log.stale == {}

    def test_check_invariants_reads_the_saved_details(self):
        log = InstallLog()
        log.record(1.0, 3, 7, S(2, 1), 3)
        log.record(2.0, 3, 7, S(1, 1), 4)
        assert check_invariants(7, {}, None, log, settled=False) == [
            Violation(STALE_INSTALL, DETAIL)
        ]
        assert check_invariants(8, {}, None, log, settled=False) == []

    def test_records_read_back_from_the_columns(self):
        log = InstallLog()
        log.record(1.5, 3, 7, S(2, 1), 4)
        log.record(2.5, 5, 8, S(2, 2), 5)
        assert len(log) == 2
        assert log[-1] == InstallRecord(2.5, 5, 8, 5, 4)
        assert log[-1].time == 2.5 and log[0].switch == 3 and log[0].proposer == 4
        assert list(log) == [InstallRecord(1.5, 3, 7, 4, 3), log[1]]
        assert [install.connection_id for install in log] == [7, 8]
        log.record(3.5, 5, 2**32 - 1, S(2, 2), 5)  # the largest id the wire carries
        assert log[-1].connection_id == 2**32 - 1


    def test_a_run_of_equal_installs_is_one_row(self):
        """Consecutive installs of one (time, connection, stamp, proposer)
        share a physical row; reading back still yields one per install."""
        log = InstallLog()
        flood = S(2, 1)
        for switch in (4, 1, 7):
            log.record(1.5, switch, 7, flood, 3)
        log.record(1.5, 2, 7, S(2, 1), 3)  # an equal stamp, another object
        log.record(1.5, 5, 7, S(2, 1), 5)  # another proposer
        log.record(2.0, 5, 8, S(2, 2), 5)
        log.record(2.0, 6, 8, S(2, 2), 5)
        assert len(log.row_time) == 3 and len(log) == 7
        installs = [InstallRecord(1.5, x, 7, 3, 3) for x in (4, 1, 7, 2)] + [
            InstallRecord(1.5, 5, 7, 5, 3),
            InstallRecord(2.0, 5, 8, 5, 4),
            InstallRecord(2.0, 6, 8, 5, 4),
        ]
        assert list(log) == installs
        assert [log[i] for i in range(-7, 7)] == installs * 2
        assert [log.connections_since(i) for i in range(8)] == (
            [{7, 8}] * 5 + [{8}] * 2 + [set()]
        )


#: Stamps of two origins, some dominating others, some incomparable.
STAMPS = [S(0, 1), S(1, 1), S(2, 1), S(1, 2), S(2, 2), S(3, 0)]
#: ``(time, connection, stamp, proposer, switches)``: one install class.
CLASSES = st.lists(
    st.tuples(
        st.sampled_from([1.0, 2.0]),
        st.sampled_from([7, 8]),
        st.integers(0, len(STAMPS) - 1),
        st.sampled_from([3, 4]),
        st.lists(st.integers(0, 5), min_size=1, max_size=5),
    ),
    max_size=12,
)


def columns(log: InstallLog) -> tuple:
    return (
        log.row_time.tolist(), log.row_connection.tolist(),
        log.row_proposer.tolist(), log.row_stamp_total.tolist(),
        log.switches.tolist(), log.stale,
        {cid: dict(lasts) for cid, lasts in log._last.items()},
    )


class TestRecordClass:
    """Logging a class at once is logging its switches one at a time."""

    @settings(max_examples=200, deadline=None)
    @given(classes=CLASSES)
    # Switch 2 installs a dominated stamp behind switch 1, which does not.
    @example(classes=[(1.0, 7, 2, 3, [2]), (2.0, 7, 1, 4, [1, 2])])
    def test_a_class_is_its_switches_in_order(self, classes):
        whole, one_by_one = InstallLog(), InstallLog()
        for time, cid, stamp, proposer, switches in classes:
            # An equal stamp of another object, so a row may continue.
            whole.record_class(time, switches, cid, STAMPS[stamp], proposer)
            for x in switches:
                one_by_one.record(time, x, cid, S(*STAMPS[stamp].dense(2)), proposer)
        assert columns(whole) == columns(one_by_one)
        assert list(whole) == list(one_by_one)


def test_rule_outlives_a_destroyed_and_recreated_connection():
    dgmc = DgmcNetwork(ring_network(6), ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
    dgmc.register_symmetric(1)
    dgmc.inject(JoinEvent(0, 1), at=1.0)
    dgmc.inject(JoinEvent(2, 1), at=20.0)
    dgmc.run()
    first = dgmc.switches[4].states[1].current_stamp.snapshot()
    dgmc.inject(LeaveEvent(0, 1), at=40.0)
    dgmc.inject(LeaveEvent(2, 1), at=60.0)
    dgmc.run()
    assert not dgmc.switches[4].has_connection(1)
    dgmc.inject(JoinEvent(3, 1), at=80.0)
    dgmc.run()
    assert dgmc.switches[4].has_connection(1)

    def check():
        return check_invariants(1, dgmc.states_for(1), dgmc.net, dgmc.install_log, True)

    assert check() == []
    dgmc.install_log.record(dgmc.sim.now, 4, 1, first, 4)
    found = check()
    assert [v.invariant for v in found] == [STALE_INSTALL]
    assert found[0].detail.startswith("switch 4 replaced installed stamp ")
    assert found[0].detail.endswith(f"with dominated stamp {first} (proposer 4)")


def test_an_install_costs_at_most_32_bytes():
    installs = 10_000
    stamps = [S(i, 1) for i in range(installs)]
    log = InstallLog()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, stamp in enumerate(stamps):
            log.record(i * 0.5, i % 16, 1 + i % 3, stamp, i % 16)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == installs and log.stale == {}
    assert used / installs <= 32
