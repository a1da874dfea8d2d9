"""Golden dispatch test: the kernel's order contract, pinned end to end.

One seeded :class:`~repro.core.protocol.DgmcNetwork` run packs two
conflicting joins, a leave and a link flap into one Tc window, so which
switch computes, floods, withdraws and installs *when* depends on how the
kernel breaks every same-instant tie (ties break by schedule order; a
ReceiveLSA() wake and a CPU grant are each one deferred entry of the
current instant's FIFO, a flood is one heap entry per arrival instant; see
:mod:`repro.sim.kernel`).  Both logs are pinned to the values of the
commit before the kernel was cut down to one module; the kernel-event
count was re-pinned twice with not a byte of either log moving: 318 -> 217
when zero-delay work left the heap and floods started delivering by hop
class, and 217 -> 205 when ReceiveLSA() stopped being a daemon (no first
step to park it, once per switch: 12).  A change to scheduling order fails here on every push, long
before the nightly ``benchmarks/e2e/run.py --selfcheck``; that the order
*is* ``(time, seq)`` order is checked against a plain heap in
``tests/test_sim_properties.py``.
"""

from __future__ import annotations

import random

from repro.core import DgmcNetwork, JoinEvent, LeaveEvent, LinkEvent, ProtocolConfig
from repro.topo.generators import waxman_network

CID = 1
WINDOW = 10.0  # the conflict window opens here; Tc = 0.5

KERNEL_EVENTS = 205

#: (time, switch, connection)
COMPUTATIONS = [
    (1.5, 0, 1), (2.5, 5, 1), (3.5, 9, 1),
    (10.5, 3, 1), (10.5, 7, 1), (10.6, 5, 1), (10.7, 0, 1),
    (11.05, 7, 1), (11.05, 3, 1), (11.1, 5, 1), (11.2, 0, 1),
    (11.55, 7, 1), (11.55, 3, 1), (11.6, 5, 1), (11.7, 0, 1),
    (12.05, 7, 1), (12.05, 3, 1), (12.1, 5, 1), (12.2, 0, 1),
]

SETUP_INSTALLS = 36  # three uncontended joins, installed at all 12 switches

AFTER_FIRST_JOINS = ((0, 1), (5, 1), (7, 1), (9, 1))
FINAL = ((0, 3), (3, 1), (5, 2), (7, 1), (9, 1))

#: (time, switch, connection, stamp, proposer) from the window on.
WINDOW_INSTALLS = [
    (10.5, 3, 1, ((0, 1), (3, 1), (5, 1), (9, 1)), 3),
    (10.5, 7, 1, AFTER_FIRST_JOINS, 7),
    (10.55, 2, 1, AFTER_FIRST_JOINS, 7),
    (10.55, 8, 1, AFTER_FIRST_JOINS, 7),
    (10.55, 9, 1, AFTER_FIRST_JOINS, 7),
    (10.55, 10, 1, AFTER_FIRST_JOINS, 7),
    (10.6, 1, 1, AFTER_FIRST_JOINS, 7),
    (10.6, 11, 1, AFTER_FIRST_JOINS, 7),
    (10.65, 4, 1, AFTER_FIRST_JOINS, 7),
    (10.65, 6, 1, AFTER_FIRST_JOINS, 7),
    (12.05, 7, 1, FINAL, 7),
    (12.05, 3, 1, FINAL, 3),
    (12.1, 5, 1, FINAL, 5),
    (12.100000000000001, 2, 1, FINAL, 7),
    (12.100000000000001, 8, 1, FINAL, 7),
    (12.100000000000001, 9, 1, FINAL, 7),
    (12.100000000000001, 10, 1, FINAL, 7),
    (12.100000000000001, 7, 1, FINAL, 3),
    (12.15, 1, 1, FINAL, 5),
    (12.15, 11, 1, FINAL, 7),
    (12.15, 2, 1, FINAL, 3),
    (12.15, 5, 1, FINAL, 3),
    (12.15, 8, 1, FINAL, 3),
    (12.15, 9, 1, FINAL, 3),
    (12.15, 10, 1, FINAL, 3),
    (12.2, 0, 1, FINAL, 5),
    (12.2, 6, 1, FINAL, 5),
    (12.2, 11, 1, FINAL, 5),
    (12.200000000000001, 4, 1, FINAL, 7),
    (12.200000000000001, 0, 1, FINAL, 3),
    (12.200000000000001, 1, 1, FINAL, 3),
    (12.200000000000001, 11, 1, FINAL, 3),
    (12.25, 4, 1, FINAL, 3),
    (12.25, 6, 1, FINAL, 3),
]


def test_golden_dispatch_order():
    net = waxman_network(12, random.Random(1996))
    dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
    dgmc.register_symmetric(CID)
    for at, member in enumerate((0, 5, 9), start=1):
        dgmc.inject(JoinEvent(member, CID), at=float(at))
    dgmc.run()
    u, v = sorted(dgmc.switches[0].states[CID].installed.all_edges())[0]
    assert (u, v) == (0, 9)

    dgmc.inject(JoinEvent(3, CID), at=WINDOW)
    dgmc.inject(JoinEvent(7, CID), at=WINDOW)  # same instant: conflicting joins
    dgmc.inject(LeaveEvent(5, CID), at=WINDOW + 0.1)
    dgmc.inject(LinkEvent(u, u, v, up=False), at=WINDOW + 0.2)
    dgmc.inject(LinkEvent(u, u, v, up=True), at=WINDOW + 0.4)
    dgmc.run()
    assert dgmc.agreement(CID)[0]

    computations = [(c.time, c.switch, c.connection_id) for c in dgmc.computation_log]
    installs = [
        (i.time, i.switch, i.connection_id, tuple(sorted(i.stamp.items())), i.proposer)
        for i in dgmc.install_log
    ]
    assert computations == COMPUTATIONS
    assert len(installs) == SETUP_INSTALLS + len(WINDOW_INSTALLS)
    assert installs[SETUP_INSTALLS:] == WINDOW_INSTALLS
    assert dgmc.sim.events_dispatched == KERNEL_EVENTS
    assert dgmc.sim.now == 12.25
