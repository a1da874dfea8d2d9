"""Run one scenario under a protocol and extract trial metrics.

Every trial has the same three phases:

1. **Setup** -- the schedule's initial members join, widely spaced, and the
   simulation runs to quiescence; this models an MC in steady state before
   the measured workload arrives.
2. **Measured workload** -- the schedule's events are injected (shifted to
   start after setup), and the simulation runs to quiescence again.
3. **Harvest** -- counters are differenced against their post-setup
   snapshots so the metrics cover exactly the measured events.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.baselines.brute_force import BruteForceNetwork
from repro.baselines.mospf import MospfNetwork
from repro.core.events import JoinEvent, LeaveEvent
from repro.core.mc import Role
from repro.core.protocol import DgmcNetwork, ProtocolConfig
from repro.harness.metrics import TrialMetrics
from repro.workloads.scenario import Scenario


def _register(dgmc: DgmcNetwork, scenario: Scenario) -> None:
    if scenario.connection_type == "symmetric":
        dgmc.register_symmetric(scenario.connection_id)
    elif scenario.connection_type == "receiver-only":
        dgmc.register_receiver_only(scenario.connection_id)
    elif scenario.connection_type == "asymmetric":
        dgmc.register_asymmetric(scenario.connection_id)
    else:
        raise ValueError(
            f"unknown connection type {scenario.connection_type!r}"
        )


def _join_role(scenario: Scenario, switch: int) -> Role | None:
    """Role for a joining switch.

    Symmetric / receiver-only MCs use their defaults.  For asymmetric MCs
    the harness assigns deterministic mixed roles by switch id: one third
    senders, one third receivers, one third both -- exercising per-source
    trees without changing the membership schedule format.
    """
    if scenario.connection_type != "asymmetric":
        return None
    return (Role.SENDER, Role.RECEIVER, Role.BOTH)[switch % 3]


def run_dgmc_trial(scenario: Scenario) -> TrialMetrics:
    """Execute a scenario under D-GMC and return its metrics."""
    config = ProtocolConfig(
        compute_time=scenario.compute_time,
        per_hop_delay=scenario.per_hop_delay,
    )
    dgmc = DgmcNetwork(scenario.net, config)
    _register(dgmc, scenario)
    m = scenario.connection_id
    round_length = scenario.round_length

    # Phase 1: setup -- initial members join far apart, no conflicts.
    setup_gap = 4.0 * round_length
    t = setup_gap
    for switch in sorted(scenario.schedule.initial_members):
        dgmc.inject(JoinEvent(switch, m, role=_join_role(scenario, switch)), at=t)
        t += setup_gap
    dgmc.run()
    assert dgmc.quiescent(), "setup phase did not quiesce"

    # Snapshot counters after setup.
    events0 = dgmc.mc_event_count
    comps0 = dgmc.total_computations()
    floods0 = dgmc.mc_floodings()
    snap0 = dgmc.metrics.snapshot()

    # Phase 2: the measured workload.
    t0 = dgmc.sim.now + 4.0 * round_length
    first_event_time = None
    for ev in scenario.schedule.events:
        at = t0 + ev.time
        if first_event_time is None:
            first_event_time = at
        if ev.join:
            dgmc.inject(
                JoinEvent(ev.switch, m, role=_join_role(scenario, ev.switch)),
                at=at,
            )
        else:
            dgmc.inject(LeaveEvent(ev.switch, m), at=at)
    dgmc.run()
    assert dgmc.quiescent(), "measured phase did not quiesce"

    agreed, _ = dgmc.agreement(m)
    return TrialMetrics(
        events=dgmc.mc_event_count - events0,
        computations=dgmc.total_computations() - comps0,
        floodings=dgmc.mc_floodings() - floods0,
        first_event_time=first_event_time or 0.0,
        last_install_time=dgmc.last_install_time(m),
        round_length=round_length,
        agreed=agreed,
        protocol="dgmc",
        metrics=dgmc.metrics.delta(snap0),
    )


def run_brute_force_trial(scenario: Scenario) -> TrialMetrics:
    """Execute a scenario under the brute-force event-driven protocol."""
    bf = BruteForceNetwork(
        scenario.net,
        compute_time=scenario.compute_time,
        per_hop_delay=scenario.per_hop_delay,
    )
    m = scenario.connection_id
    if scenario.connection_type == "symmetric":
        bf.register_symmetric(m)
    else:
        bf.register_receiver_only(m)
    round_length = scenario.round_length

    setup_gap = 4.0 * round_length
    t = setup_gap
    for switch in sorted(scenario.schedule.initial_members):
        bf.inject_join(switch, m, at=t)
        t += setup_gap
    bf.run()

    events0 = bf.events_injected
    comps0 = bf.total_computations
    floods0 = bf.mc_floodings()
    snap0 = bf.metrics.snapshot()

    t0 = bf.sim.now + 4.0 * round_length
    first_event_time = None
    for ev in scenario.schedule.events:
        at = t0 + ev.time
        if first_event_time is None:
            first_event_time = at
        if ev.join:
            bf.inject_join(ev.switch, m, at=at)
        else:
            bf.inject_leave(ev.switch, m, at=at)
    bf.run()

    return TrialMetrics(
        events=bf.events_injected - events0,
        computations=bf.total_computations - comps0,
        floodings=bf.mc_floodings() - floods0,
        first_event_time=first_event_time or 0.0,
        last_install_time=bf.last_install_time(m),
        round_length=round_length,
        agreed=bf.agreement(m),
        protocol="brute-force",
        metrics=bf.metrics.delta(snap0),
    )


def run_mospf_trial(
    scenario: Scenario,
    senders: Optional[Iterable[int]] = None,
    datagram_gap: Optional[float] = None,
) -> TrialMetrics:
    """Execute a scenario under MOSPF.

    ``senders`` default to the schedule's initial members; each sender
    transmits one datagram ``datagram_gap`` after every membership event
    (default: one flooding diameter, i.e. after the LSA has settled), which
    is the minimum traffic that realizes MOSPF's data-driven costs.
    """
    mo = MospfNetwork(
        scenario.net,
        compute_time=scenario.compute_time,
        per_hop_delay=scenario.per_hop_delay,
    )
    m = scenario.connection_id
    round_length = scenario.round_length
    if senders is None:
        senders = sorted(scenario.schedule.initial_members)
    if datagram_gap is None:
        datagram_gap = scenario.flooding_diameter()

    setup_gap = 4.0 * round_length
    t = setup_gap
    for switch in sorted(scenario.schedule.initial_members):
        mo.inject_join(switch, m, at=t)
        t += setup_gap
    # Prime the caches: one datagram per sender before measurement starts,
    # so the measured computations are those *caused by the events*.
    for s in senders:
        mo.send_datagram(s, m, at=t)
        t += setup_gap
    mo.run()

    events0 = mo.events_injected
    comps0 = mo.total_computations
    floods0 = mo.mc_floodings()
    snap0 = mo.metrics.snapshot()

    t0 = mo.sim.now + 4.0 * round_length
    first_event_time = None
    for ev in scenario.schedule.events:
        at = t0 + ev.time
        if first_event_time is None:
            first_event_time = at
        if ev.join:
            mo.inject_join(ev.switch, m, at=at)
        else:
            mo.inject_leave(ev.switch, m, at=at)
        for s in senders:
            mo.send_datagram(s, m, at=at + datagram_gap)
    mo.run()

    return TrialMetrics(
        events=mo.events_injected - events0,
        computations=mo.total_computations - comps0,
        floodings=mo.mc_floodings() - floods0,
        first_event_time=first_event_time or 0.0,
        last_install_time=mo.sim.now,
        round_length=round_length,
        agreed=True,
        protocol="mospf",
        metrics=mo.metrics.delta(snap0),
    )
