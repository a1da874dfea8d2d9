"""Simulated-vs-live equivalence: both backends must build the same trees.

The harness runs one seeded scenario twice -- once on the discrete-event
simulator (:class:`~repro.core.protocol.DgmcNetwork`), once live over
loopback UDP (:class:`~repro.net.fabric.LiveFabric`) -- and compares the
final per-switch installed topologies *as canonical wire bytes*
(:func:`repro.core.wire.encode_topology`), so the comparison exercises the
same codec the datagrams travel through.

Determinism argument: the scenario's events are re-timed to be strictly
sequential (gaps of many rounds), so the discrete run handles each event
individually; the live run applies the same events behind a quiescence
barrier.  With every event handled in isolation the final trees depend
only on (topology, event order), not on timing -- so the two backends
agree byte-for-byte at zero loss, and the reliable transport preserves
the guarantee under injected loss.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.events import JoinEvent, LeaveEvent
from repro.core.invariants import canonical_tree_bytes, check_agreement, check_invariants
from repro.core.protocol import DgmcNetwork, ProtocolConfig
from repro.net.fabric import LiveConfig, LiveFabric
from repro.net.faults import FaultPlan
from repro.topo.generators import waxman_network
from repro.topo.graph import Network
from repro.workloads.membership import sparse_schedule


@dataclass
class LiveScenario:
    """One seeded workload both backends can execute."""

    net: Network
    #: ``(time, event)`` pairs, strictly increasing, well separated.
    timeline: List[Tuple[float, Any]]
    connection_id: int = 1
    compute_time: float = 0.5
    per_hop_delay: float = 0.05

    @property
    def config(self) -> ProtocolConfig:
        return ProtocolConfig(
            compute_time=self.compute_time, per_hop_delay=self.per_hop_delay
        )


def make_scenario(
    switches: int = 12,
    seed: int = 1996,
    events: int = 8,
    compute_time: float = 0.5,
    per_hop_delay: float = 0.05,
) -> LiveScenario:
    """Seeded Waxman network + sequential membership timeline.

    The initial members arrive as ordinary joins at the head of the
    timeline (the live runtime has no other bootstrap channel), and every
    event sits ``10 x (Tf + Tc)`` after its predecessor so no two events
    ever conflict -- the determinism precondition above.
    """
    rng = random.Random(seed)
    net = waxman_network(switches, rng)
    initial = frozenset(rng.sample(range(switches), min(3, switches)))
    schedule = sparse_schedule(
        switches, rng, count=events, initial_members=initial
    )
    round_length = net.flooding_diameter(per_hop_delay=per_hop_delay) + compute_time
    gap = 10.0 * round_length
    connection_id = 1
    timeline: List[Tuple[float, Any]] = []
    t = gap
    for switch in sorted(initial):
        timeline.append((t, JoinEvent(switch, connection_id)))
        t += gap
    for ev in schedule.events:
        event = (
            JoinEvent(ev.switch, connection_id)
            if ev.join
            else LeaveEvent(ev.switch, connection_id)
        )
        timeline.append((t, event))
        t += gap
    return LiveScenario(
        net=net,
        timeline=timeline,
        connection_id=connection_id,
        compute_time=compute_time,
        per_hop_delay=per_hop_delay,
    )


@dataclass
class BackendResult:
    """What one backend produced for a scenario."""

    backend: str
    #: No invariant of :mod:`repro.core.invariants` is violated (settled).
    agreed: bool
    detail: str
    #: Sorted final member list (from the reference switch's state).
    members: Tuple[int, ...]
    #: switch id -> canonical wire bytes of its installed topology.
    trees: Dict[int, bytes]
    #: live_* obs counters (empty for the discrete backend).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Prometheus text of the backend's metrics registry ("" if none).
    prom: str = ""


def _result(backend: str, deployment, connection_id: int, **extra) -> BackendResult:
    """Judge a settled deployment of either backend by the shared contract."""
    states = deployment.states_for(connection_id)
    violations = check_invariants(
        connection_id, states, deployment.net, deployment.install_log, settled=True
    )
    return BackendResult(
        backend=backend,
        agreed=not violations,
        detail=(violations[0].describe() if violations
                else check_agreement(connection_id, states)[1]),
        members=tuple(sorted(states[min(states)].members)) if states else (),
        trees=canonical_tree_bytes(states),
        **extra,
    )


def run_discrete(scenario: LiveScenario) -> BackendResult:
    """Execute the scenario on the discrete-event simulator."""
    dgmc = DgmcNetwork(scenario.net.copy(), scenario.config)
    dgmc.register_symmetric(scenario.connection_id)
    for at, event in scenario.timeline:
        dgmc.inject(event, at=at)
    dgmc.run()
    return _result("discrete", dgmc, scenario.connection_id)


def run_live(
    scenario: LiveScenario,
    loss: float = 0.0,
    fault_seed: int = 7,
    live: Optional[LiveConfig] = None,
) -> BackendResult:
    """Execute the scenario live over loopback UDP (blocking wrapper)."""
    if live is None:
        live = LiveConfig(faults=FaultPlan(loss=loss, seed=fault_seed))

    async def _run() -> BackendResult:
        fabric = LiveFabric(scenario.net.copy(), scenario.config, live)
        fabric.register_symmetric(scenario.connection_id)
        for at, event in scenario.timeline:
            fabric.inject(event, at=at)
        try:
            await fabric.run()
            return _result(
                "live",
                fabric,
                scenario.connection_id,
                counters=fabric.counters(),
                prom=fabric.metrics.to_prometheus(),
            )
        finally:
            await fabric.shutdown()

    return asyncio.run(_run())


@dataclass
class EquivalenceReport:
    """Outcome of comparing the two backends on one scenario."""

    ok: bool
    discrete: BackendResult
    live: BackendResult
    lines: List[str]

    @property
    def detail(self) -> str:
        return "\n".join(self.lines)


def check_equivalence(
    discrete: BackendResult, live: BackendResult, require_identical_trees: bool = True
) -> EquivalenceReport:
    """Compare two backend results; at zero loss trees must match exactly."""
    lines: List[str] = []
    ok = True
    if not discrete.agreed:
        ok = False
        lines.append(f"discrete backend disagrees: {discrete.detail}")
    if not live.agreed:
        ok = False
        lines.append(f"live backend disagrees: {live.detail}")
    if discrete.members != live.members:
        ok = False
        lines.append(
            f"member lists differ: discrete={list(discrete.members)} "
            f"live={list(live.members)}"
        )
    if require_identical_trees:
        if set(discrete.trees) != set(live.trees):
            ok = False
            only_d = sorted(set(discrete.trees) - set(live.trees))
            only_l = sorted(set(live.trees) - set(discrete.trees))
            lines.append(
                f"state-holding switches differ: only discrete={only_d}, "
                f"only live={only_l}"
            )
        else:
            diff = [x for x in sorted(discrete.trees) if discrete.trees[x] != live.trees[x]]
            if diff:
                ok = False
                lines.append(f"installed trees differ at switches {diff}")
    if ok:
        lines.append(
            f"backends equivalent: {len(live.trees)} switches, "
            f"members={list(live.members)}"
        )
    return EquivalenceReport(ok=ok, discrete=discrete, live=live, lines=lines)
