"""ReceiveLSA() run as classes of switches decides what it decides switch by
switch.

:func:`repro.core.switch.receive_run` groups the wakes of one kernel wake
run by ``(record, batch, R[x] > T[x])``, looks each class's transition up
once, then applies it per switch in enrolment order.  Each run below is made
twice -- as shipped, and with the run patched to call every switch's own
ReceiveLSA() in turn -- and the two must agree on every install, every
computation and every switch's canonical state, while the class path looks
up fewer transitions than it wakes switches.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.core import DgmcNetwork, JoinEvent, LeaveEvent, LinkEvent, ProtocolConfig
from repro.core import switch as switch_module
from repro.topo.generators import waxman_network
from tests.test_receive_memo import churn_run, flap_run, outcome


def one_by_one(states):
    for state in states:
        state.owner._receive_lsa(state)


@pytest.fixture
def per_switch(monkeypatch):
    monkeypatch.setattr(switch_module, "receive_run", one_by_one)


def lookups(dgmc: DgmcNetwork) -> int:
    return dgmc.receive_memo.hits + dgmc.receive_memo.misses


def wide_churn_run(config: ProtocolConfig = None) -> DgmcNetwork:
    """Seeded churn on 60 switches: two members change at each instant, so
    floods cross, a switch that originated an event hears a proposal that
    missed it (``R[x] > T[x]``), and triggered proposals race."""
    rng = Random(23)
    dgmc = DgmcNetwork(
        waxman_network(60, Random(9)),
        config or ProtocolConfig(compute_time=0.5, per_hop_delay=0.05),
    )
    dgmc.register_symmetric(1)
    members = rng.sample(range(60), 10)
    for i, x in enumerate(members):
        dgmc.inject(JoinEvent(x, 1), at=1.0 + 0.1 * i)
    at = 5.0
    for _ in range(25):
        at += rng.choice((0.1, 0.3, 3.0))
        joiner = rng.choice([x for x in range(60) if x not in members])
        leaver = members.pop(rng.randrange(len(members)))
        members.append(joiner)
        dgmc.inject(JoinEvent(joiner, 1), at=at)
        dgmc.inject(LeaveEvent(leaver, 1), at=at)
    dgmc.run()
    return dgmc


def frr_flap_run() -> DgmcNetwork:
    """Fail and heal installed tree edges of a 60-switch network, with
    fast reroute, while a member joins in the same window."""
    dgmc = DgmcNetwork(
        waxman_network(60, Random(4)),
        ProtocolConfig(compute_time=0.5, per_hop_delay=0.05, enable_frr=True),
    )
    dgmc.register_symmetric(1)
    for i, x in enumerate((0, 11, 23, 37, 48, 59)):
        dgmc.inject(JoinEvent(x, 1), at=1.0 + 0.2 * i)
    dgmc.run()
    joiners = iter((5, 17, 29, 41, 53, 7))
    for _ in range(6):
        u, v = sorted(dgmc.states_for(1)[0].installed.all_edges())[0]
        now = dgmc.sim.now
        dgmc.inject(LinkEvent(detector=u, u=u, v=v, up=False), at=now + 1.0)
        dgmc.inject(JoinEvent(next(joiners), 1), at=now + 1.1)
        dgmc.inject(LinkEvent(detector=v, u=u, v=v, up=True), at=now + 1.3)
        dgmc.run()
    return dgmc


@pytest.mark.parametrize(
    "run", [churn_run, wide_churn_run, flap_run, frr_flap_run],
    ids=["churn", "wide_churn", "link_flap", "frr_flap"],
)
def test_classes_equal_switch_by_switch(run, request):
    classes = run()
    request.getfixturevalue("per_switch")
    alone = run()
    assert outcome(classes) == outcome(alone)
    assert lookups(classes) < lookups(alone)


def test_the_ablation_knobs_hold_on_the_class_path(request):
    """A knob changes the transition, and the class path carries it."""
    config = ProtocolConfig(compute_time=0.5, per_hop_delay=0.05, ablate_rc_gate=True)
    classes = outcome(wide_churn_run(config))
    request.getfixturevalue("per_switch")
    assert classes == outcome(wide_churn_run(config))


def test_install_rows_follow_the_classes():
    """A flood's receivers install at one instant, so the log keeps far
    fewer physical rows than installs."""
    dgmc = wide_churn_run()
    assert len(dgmc.install_log.row_time) * 4 < len(dgmc.install_log)
