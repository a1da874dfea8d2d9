"""Run one scenario under a protocol and extract trial metrics.

D-GMC and both baselines go through one loop, :func:`run_trial`, and
every trial has the same three phases:

1. **Setup** -- the schedule's initial members join, widely spaced, and the
   simulation runs to quiescence; this models an MC in steady state before
   the measured workload arrives.
2. **Measured workload** -- the schedule's events are injected (shifted to
   start after setup), and the simulation runs to quiescence again.
3. **Harvest** -- counters are differenced against their post-setup
   snapshots so the metrics cover exactly the measured events.

The loop branches only where the protocols differ: how each network is
built (:func:`build_network`), and MOSPF's data-driven costs, which need
data -- one priming datagram per sender at the end of setup, then one per
sender a flooding diameter (the LSA has settled) after every event.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.baselines.brute_force import BruteForceNetwork
from repro.baselines.mospf import MospfNetwork
from repro.core.events import JoinEvent, LeaveEvent
from repro.core.mc import ConnectionSpec, ConnectionType, Role
from repro.core.protocol import DgmcNetwork, ProtocolConfig
from repro.harness.metrics import TrialMetrics
from repro.workloads.scenario import Scenario

#: The protocol labels :func:`run_trial` accepts and reports.
PROTOCOLS = ("dgmc", "mospf", "brute-force")

Deployment = Union[DgmcNetwork, BruteForceNetwork, MospfNetwork]


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


def build_network(scenario: Scenario, protocol: str) -> Deployment:
    """A fresh ``protocol`` deployment on the scenario's network, its
    connection registered (MOSPF groups need no registration)."""
    spec = ConnectionSpec(
        scenario.connection_id, ConnectionType(scenario.connection_type)
    )
    timing = dict(
        compute_time=scenario.compute_time, per_hop_delay=scenario.per_hop_delay
    )
    if protocol == "mospf":
        return MospfNetwork(scenario.net, **timing)
    if protocol == "dgmc":
        network = DgmcNetwork(scenario.net, ProtocolConfig(**timing))
    elif protocol == "brute-force":
        network = BruteForceNetwork(scenario.net, **timing)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    network.register_connection(spec)
    return network


def run_trial(
    scenario: Scenario,
    protocol: str = "dgmc",
    network: Optional[Deployment] = None,
) -> TrialMetrics:
    """Execute ``scenario`` under ``protocol`` and return its metrics.

    ``network`` defaults to a fresh :func:`build_network`; pass one built
    by the caller to inspect it afterwards (e.g. its computation log).
    """
    if network is None:
        network = build_network(scenario, protocol)
    m = scenario.connection_id
    members = sorted(scenario.schedule.initial_members)
    senders = members if isinstance(network, MospfNetwork) else []
    datagram_gap = scenario.flooding_diameter()
    gap = 4.0 * scenario.round_length

    def join(switch: int, at: float) -> None:
        network.inject(JoinEvent(switch, m, role=_join_role(scenario, switch)), at=at)

    # Phase 1: setup -- initial members join far apart, no conflicts.
    # MOSPF's caches are then primed, so the measured computations are
    # those *caused by the events*.
    t = gap
    for switch in members:
        join(switch, t)
        t += gap
    for s in senders:
        network.send_datagram(s, m, at=t)
        t += gap
    network.run()
    assert network.quiescent(), "setup phase did not quiesce"

    events0 = network.events_injected
    comps0 = network.total_computations()
    floods0 = network.mc_floodings()
    snap0 = network.metrics.snapshot()

    # Phase 2: the measured workload.
    t0 = network.sim.now + gap
    events = scenario.schedule.events
    for ev in events:
        at = t0 + ev.time
        if ev.join:
            join(ev.switch, at)
        else:
            network.inject(LeaveEvent(ev.switch, m), at=at)
        for s in senders:
            network.send_datagram(s, m, at=at + datagram_gap)
    network.run()
    assert network.quiescent(), "measured phase did not quiesce"

    agreed, _ = network.agreement(m)
    return TrialMetrics(
        events=network.events_injected - events0,
        computations=network.total_computations() - comps0,
        floodings=network.mc_floodings() - floods0,
        first_event_time=t0 + events[0].time if events else 0.0,
        last_install_time=network.last_install_time(m),
        round_length=scenario.round_length,
        agreed=agreed,
        protocol=protocol,
        metrics=network.metrics.delta(snap0),
    )
