"""ReceiveLSA() run as classes of switches decides what it decides switch by
switch.

:func:`repro.core.switch.receive_run` groups the wakes of one kernel wake
run by ``(record, batch, R[x] > T[x])``, looks each class's transition up
once, then applies it per switch in enrolment order.  Each run below is made
twice -- as shipped, and with the run patched to wake every switch in a run
of its own, a class of one -- and the two must agree on every install, every
computation and every switch's canonical state, while the class path looks
up fewer transitions than it wakes switches.  A traced run is the same
class path, so it looks up exactly what the untraced run does.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.core import (
    DgmcNetwork, JoinEvent, LeaveEvent, LinkEvent, NodeEvent, ProtocolConfig,
)
from repro.core import switch as switch_module
from repro.lsr.flooding import KernelTransport, Transport
from repro.obs.tracer import Tracer, use_tracer
from repro.topo.generators import waxman_network
from tests.test_receive_memo import churn_run, flap_run, outcome


#: The shipped run, held before :func:`per_switch` rebinds the module name
#: (which the runs' own wakes read), so a run of one does not recurse.
shipped_run = switch_module.receive_run


def one_by_one(states):
    for state in states:
        shipped_run([state])


@pytest.fixture
def per_switch(monkeypatch):
    monkeypatch.setattr(switch_module, "receive_run", one_by_one)


#: The shipped install path, held before :func:`per_switch_installs`
#: rebinds the module name.
shipped_install = switch_module.install_class


def one_install_at_a_time(states, topology, stamp, proposer):
    for state in states:
        shipped_install([state], topology, stamp, proposer)


@pytest.fixture
def per_switch_installs(monkeypatch):
    """Wake every switch in a run of its own and install it as a class of
    its own: the oracle of one switch at a time."""
    monkeypatch.setattr(switch_module, "receive_run", one_by_one)
    monkeypatch.setattr(switch_module, "install_class", one_install_at_a_time)


@pytest.fixture
def per_copy_delivery(monkeypatch):
    """Deliver every flooded copy through its switch's own handler."""
    monkeypatch.setattr(KernelTransport, "register_class", Transport.register_class)


def installs(dgmc: DgmcNetwork):
    """What the installs left: the log, its stale details, and per state
    the canonical state, the install time, the accept count and the FRR
    plan."""
    return (
        list(dgmc.install_log),
        dgmc.install_log.stale,
        {
            (x, cid): (
                state.canonical(), state.last_install_time,
                state.proposals_accepted, state.backup_plan,
            )
            for x, switch in sorted(dgmc.switches.items())
            for cid, state in sorted(switch.states.items())
        },
        dgmc.metrics.counter("frr_retired_total").value,
    )


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


def test_a_traced_run_takes_the_class_path():
    """The tracer times the code an untraced run runs: the same lookups,
    installs, computations and states."""
    untraced = wide_churn_run()
    with use_tracer(Tracer(enabled=True)):
        traced = wide_churn_run()
    assert lookups(traced) == lookups(untraced)
    assert outcome(traced) == outcome(untraced)


def test_install_rows_follow_the_classes():
    """A flood's receivers install at one instant, so the log keeps far
    fewer physical rows than installs."""
    dgmc = wide_churn_run()
    assert len(dgmc.install_log.row_time) * 4 < len(dgmc.install_log)


@pytest.mark.parametrize("frr", [False, True], ids=["plain", "frr"])
def test_a_class_installs_as_its_switches_one_at_a_time(frr, request):
    """One loop of stores and one hook call per install run leave what
    waking and installing one switch at a time leaves."""
    config = ProtocolConfig(compute_time=0.5, per_hop_delay=0.05, enable_frr=frr)
    classes = wide_churn_run(config)
    rows = len(classes.install_log.row_time)
    request.getfixturevalue("per_switch_installs")
    alone = wide_churn_run(config)
    assert installs(classes) == installs(alone)
    assert outcome(classes) == outcome(alone)
    assert rows * 4 < len(classes.install_log)
    if frr:
        assert any(
            state.backup_plan.fragments
            for switch in classes.switches.values()
            for state in switch.states.values()
        )


def dead_switch_run() -> DgmcNetwork:
    """Joins whose floods are in flight when a switch dies: its copies,
    due at one instant with other switches', are dropped."""
    net = waxman_network(60, Random(9))
    dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
    dgmc.register_symmetric(1)
    for i, x in enumerate((0, 20, 40)):
        dgmc.inject(JoinEvent(x, 1), at=1.0 + 0.1 * i)
    dgmc.run()
    hops = net.hop_distances(7)
    dead = next(
        y for y in sorted(hops)
        if hops[y] == 2 and y not in (0, 20, 40)
        and sum(1 for h in hops.values() if h == 2) > 2
    )
    for i, joiner in enumerate((7, 33, 51)):
        at = 10.0 + 5.0 * i
        dgmc.inject(JoinEvent(joiner, 1), at=at)
        # The join floods at at + Tc; the copies arrive from one hop later.
        dgmc.inject(NodeEvent(dead, up=False), at=at + 0.51)
        dgmc.inject(NodeEvent(dead, up=True), at=at + 3.0)
    dgmc.run()
    return dgmc


def test_a_dead_switch_inside_a_delivery_class_drops_its_copy(request):
    """An MC class is one deployment call, and the switches a class holds
    that have died still drop exactly their copies."""
    classes = dead_switch_run()
    drops = classes.metrics.counter("lsa_drops_total").value
    request.getfixturevalue("per_copy_delivery")
    alone = dead_switch_run()
    assert drops > 0
    assert drops == alone.metrics.counter("lsa_drops_total").value
    assert classes.fabric.delivery_count == alone.fabric.delivery_count
    assert outcome(classes) == outcome(alone)
