"""Network-wide D-GMC protocol instance.

:class:`DgmcNetwork` wires the substrates together: the physical
:class:`~repro.topo.graph.Network`, one
:class:`~repro.lsr.router.UnicastRouter` and one
:class:`~repro.core.switch.DgmcSwitch` per switch, and a shared
:class:`~repro.lsr.flooding.FloodingFabric`.  It is the public entry point
for experiments and examples: register connections, inject join / leave /
link events, run the simulation, inspect agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.events import JoinEvent, LeaveEvent, LinkEvent, NodeEvent
from repro.core.invariants import check_agreement
from repro.core.lsa import McEvent, McLsa
from repro.core.mc import ConnectionRegistrar, ConnectionSpec
from repro.core.state import McState
from repro.core.switch import DgmcSwitch
from repro.core.timestamp import Stamp
from repro.lsr.flooding import FloodingFabric
from repro.lsr.lsa import NonMcLsa
from repro.lsr.router import UnicastRouter, bring_up_unicast
from repro.obs.attach import attach_network_metrics
from repro.sim.kernel import Simulator
from repro.topo.graph import Network

ComputeTime = Union[float, Callable[[McState], float]]


@dataclass
class ProtocolConfig:
    """Tunable parameters of a D-GMC deployment.

    * ``compute_time`` -- Tc, the topology computation time: a constant or
      a callable of the :class:`~repro.core.state.McState` (e.g. scaling
      with member count, as on the MSU ATM testbed).
    * ``per_hop_delay`` -- fixed per-hop LSA transmission time; ``None``
      uses the physical link delays.
    * ``reoptimize_on_link_up`` -- whether a link *recovery* counts as an
      event for every active connection (ablation knob; the paper only
      discusses link failures).

    Ablation knobs (each disables one design choice of Section 3.3, for
    the ``benchmarks/bench_ablations.py`` study; all default off):

    * ``ablate_withdrawal`` -- flood a triggered proposal even when LSAs
      raced in during its computation (skip Figure 5 line 22's guard),
    * ``ablate_rc_gate`` -- drop the ``R > C`` optimization (recompute even
      when the installed topology already covers the event set),
    * ``ablate_re_gate`` -- drop the ``R >= E`` deferral (compute eagerly
      even when outstanding LSAs are known).

    Deviation knobs (each disables one of the documented PR-4 protocol
    deviations, so the systematic explorer of :mod:`repro.stress` can
    re-derive the counterexample that forced it; test-only, default off):

    * ``ablate_member_stamp`` -- drop the membership-ordering vector M:
      membership LSAs apply only when they also advance R, so a reordered
      link-event LSA that jumped R past an in-flight join/leave silently
      discards the membership change,
    * ``ablate_degraded_repair`` -- drop degraded-tree repair on link-up:
      a recovered link triggers no re-proposal even when the installed
      topology no longer spans the member set.

    Fast reroute (default off so the default deployments stay
    bit-identical to the pre-FRR behavior, counters included):

    * ``enable_frr`` -- precompute per-tree-edge backup fragments at
      install time (:mod:`repro.frr`) and activate them locally on link
      failure, closing the data-plane blackhole window before the
      flood/proposal cycle converges; see docs/fast-reroute.md.
    """

    compute_time: ComputeTime = 1.0
    per_hop_delay: Optional[float] = None
    reoptimize_on_link_up: bool = False
    ablate_withdrawal: bool = False
    ablate_rc_gate: bool = False
    ablate_re_gate: bool = False
    ablate_member_stamp: bool = False
    ablate_degraded_repair: bool = False
    enable_frr: bool = False

    def resolve_compute_time(self, state: McState) -> float:
        if callable(self.compute_time):
            return float(self.compute_time(state))
        return float(self.compute_time)


@dataclass
class ComputationRecord:
    """One topology computation, as observed by the metrics hook."""

    time: float
    switch: int
    connection_id: int


@dataclass
class InstallRecord:
    """One topology install (a switch adopting a proposal)."""

    time: float
    switch: int
    connection_id: int
    stamp: Stamp
    proposer: int


class DgmcNetwork(ConnectionRegistrar):
    """A complete simulated D-GMC deployment."""

    def __init__(
        self,
        net: Network,
        config: Optional[ProtocolConfig] = None,
        sim: Optional[Simulator] = None,
        transport=None,
    ) -> None:
        self.net = net
        self.config = config or ProtocolConfig()
        self.sim = sim or Simulator()
        #: ``transport`` overrides the flooding fabric's delivery backend
        #: (default: schedule on the kernel).  The systematic explorer
        #: injects an intercepting transport here so every LSA delivery
        #: becomes an externally chosen branch point.
        self.fabric = FloodingFabric(
            self.sim, net, per_hop_delay=self.config.per_hop_delay,
            transport=transport,
        )
        self.connection_registry: Dict[int, ConnectionSpec] = {}
        self.routers: Dict[int, UnicastRouter] = bring_up_unicast(net, self.fabric)
        self.switches: Dict[int, DgmcSwitch] = {}
        self.computation_log: List[ComputationRecord] = []
        self.install_log: List[InstallRecord] = []
        self.events_injected = 0
        self._mc_event_count = 0
        #: Switches currently failed ("nodal events"); they neither
        #: receive floods nor originate anything until revived.
        self.dead_switches: set = set()
        #: Live metrics registry sampling this deployment's substrates.
        self.metrics = attach_network_metrics(self)
        self.fabric.bind_metrics(self.metrics)
        self._dropped_lsas = self.metrics.counter(
            "lsa_drops_total", "LSA deliveries dropped at failed switches"
        )
        self._duplicate_lsas = self.metrics.counter(
            "lsa_duplicates_total", "stale non-MC LSAs rejected on receive"
        )
        self._frr_activations = self.metrics.counter(
            "frr_activations_total",
            "backup fragments activated by local failure detection",
        )
        self._frr_retired = self.metrics.counter(
            "frr_retired_total",
            "active backup fragments retired by a reconciling install",
        )
        for x in net.switches():
            switch = DgmcSwitch(
                self.sim,
                x,
                net.n,
                self.routers[x],
                self.fabric,
                self.config,
                self.connection_registry,
                on_computation=self._record_computation,
                on_install=self._record_install,
            )
            self.switches[x] = switch
            self.fabric.register(x, self._deliver)

    # -- plumbing ---------------------------------------------------------------

    def _record_computation(self, switch: int, connection_id: int) -> None:
        self.computation_log.append(
            ComputationRecord(self.sim.now, switch, connection_id)
        )

    def _record_install(
        self, switch: int, connection_id: int, stamp: Stamp, proposer: int
    ) -> None:
        self.install_log.append(
            InstallRecord(self.sim.now, switch, connection_id, stamp, proposer)
        )
        state = self.switches[switch].states.get(connection_id)
        if state is not None:
            retired = state.take_frr_retirements()
            if retired:
                self._frr_retired.inc(retired)

    def _deliver(self, switch_id: int, payload) -> None:
        """Fabric delivery hook: route LSAs to the right protocol layer."""
        if switch_id in self.dead_switches:
            self._dropped_lsas.inc()  # a failed switch hears nothing
            return
        if isinstance(payload, McLsa):
            self.switches[switch_id].deliver_mc_lsa(payload)
        elif isinstance(payload, NonMcLsa):
            if not self.routers[switch_id].receive(payload):
                self._duplicate_lsas.inc()  # stale copy, already installed
        else:  # pragma: no cover - guards against harness bugs
            raise TypeError(f"unexpected flooded payload {payload!r}")

    # -- event injection --------------------------------------------------------------

    def inject(
        self,
        event: Union[JoinEvent, LeaveEvent, LinkEvent, NodeEvent],
        at: float,
    ) -> None:
        """Schedule an event for simulated time ``at``."""
        if not isinstance(event, (JoinEvent, LeaveEvent, LinkEvent, NodeEvent)):
            raise TypeError(f"unknown event {event!r}")
        self.sim.schedule_at(at, lambda: self.fire_event(event))

    def fire_event(
        self, event: Union[JoinEvent, LeaveEvent, LinkEvent, NodeEvent]
    ) -> None:
        """Apply one event now, at the current simulated time.

        The counterpart of :meth:`repro.net.fabric.LiveFabric.fire_event`.
        This driver owns the shared physical :class:`Network`, the set of
        failed switches and the event counters; what the detecting switch
        *does* about the event is :class:`DgmcSwitch`'s rule, the same
        one the live host runs.
        """
        if isinstance(event, JoinEvent):
            self._fire_membership(event, McEvent.JOIN, event.role)
        elif isinstance(event, LeaveEvent):
            self._fire_membership(event, McEvent.LEAVE, None)
        elif isinstance(event, LinkEvent):
            self._fire_link(event)
        elif isinstance(event, NodeEvent):
            self._fire_node(event)
        else:
            raise TypeError(f"unknown event {event!r}")

    def _check_alive(self, switch: int) -> None:
        if switch in self.dead_switches:
            raise ValueError(f"switch {switch} is failed; no events possible")

    def _fire_membership(self, event, kind: McEvent, role) -> None:
        self._check_alive(event.switch)
        self.events_injected += 1
        self._mc_event_count += 1
        self.switches[event.switch].spawn_event_handler(
            kind, event.connection_id, role=role
        )

    def _fire_node(self, event: NodeEvent) -> None:
        """A nodal event: every incident link flaps, detected by neighbors.

        A dead switch cannot flood its own obituary; each live neighbor
        detects its incident link going down and reacts (one non-MC LSA
        plus MC LSAs for the connections whose topology used the link).
        Recovery reverses the process, again announced by the neighbors;
        the revived switch re-originates its own router LSA so unicast
        databases refresh.  Ghost MC memberships of a dead switch linger
        in member lists (nobody can leave on its behalf) -- topology
        computations route around them via component-dominant member
        selection; the ghost rejoins cleanly on revival.
        """
        self.events_injected += 1
        if not event.up:
            if event.switch in self.dead_switches:
                return
            self.dead_switches.add(event.switch)
            neighbors = self.net.neighbors(event.switch)
            for nbr in neighbors:
                self.net.set_link_state(event.switch, nbr, False)
            for nbr in neighbors:
                self._detect_link_change(nbr, event.switch, up=False)
        else:
            if event.switch not in self.dead_switches:
                return
            self.dead_switches.discard(event.switch)
            neighbors = [
                nbr
                for nbr in self.net.neighbors(event.switch, include_down=True)
                if nbr not in self.dead_switches
            ]
            for nbr in neighbors:
                self.net.set_link_state(event.switch, nbr, True)
            self.routers[event.switch].originate(flood=True)
            for nbr in neighbors:
                self._detect_link_change(nbr, event.switch, up=True)

    def _detect_link_change(self, detector: int, other: int, up: bool) -> None:
        """One endpoint notices an incident link change and reacts."""
        affected, activated = self.switches[detector].detect_link_change(
            detector, other, up
        )
        self._mc_event_count += len(affected)
        self._frr_activations.inc(len(activated))

    def _fire_link(self, event: LinkEvent) -> None:
        """A link event: one non-MC LSA, then one MC LSA per affected MC."""
        self._check_alive(event.detector)
        self.events_injected += 1
        self.net.set_link_state(event.u, event.v, event.up)
        other = event.u if event.detector == event.v else event.v
        if not event.up and other not in self.dead_switches:
            # The far endpoint loses light too and switches its data plane
            # over before the detector's LSA reaches anyone.
            self._frr_activations.inc(
                len(self.switches[other].activate_frr(event.u, event.v))
            )
        self._detect_link_change(event.detector, other, event.up)

    # -- running ------------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Drive the simulation (to quiescence when ``until`` is None)."""
        return self.sim.run(until=until)

    def quiescent(self) -> bool:
        """No queued LSAs anywhere and no pending simulation events."""
        if self.sim.peek() is not None:
            return False
        return all(switch.mailboxes_empty for switch in self.switches.values())

    # -- inspection ----------------------------------------------------------------------

    @property
    def mc_event_count(self) -> int:
        """Membership events plus per-connection link events (the paper's
        denominator for "per event" metrics)."""
        return self._mc_event_count

    def states_for(self, connection_id: int) -> Dict[int, McState]:
        """The per-switch states currently held for a connection."""
        return {
            x: sw.states[connection_id]
            for x, sw in self.switches.items()
            if connection_id in sw.states
        }

    def agreement(self, connection_id: int) -> Tuple[bool, str]:
        """``(ok, detail)`` of :func:`~repro.core.invariants.check_agreement`
        over the live switches, after quiescence."""
        states = {
            x: s
            for x, s in self.states_for(connection_id).items()
            if x not in self.dead_switches
        }
        return check_agreement(connection_id, states)

    def last_install_time(self, connection_id: int) -> float:
        """Latest install time across live switches (convergence numerator)."""
        states = self.states_for(connection_id)
        times = [
            s.last_install_time
            for x, s in states.items()
            if x not in self.dead_switches
        ]
        return max(times) if times else 0.0

    def total_computations(self) -> int:
        return len(self.computation_log)

    def mc_floodings(self) -> int:
        return self.fabric.count_for("mc")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DgmcNetwork(n={self.net.n}, "
            f"connections={sorted(self.connection_registry)})"
        )
