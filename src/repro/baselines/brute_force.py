"""The brute-force event-driven LSR-based MC protocol (Section 2).

"Upon receiving a membership LSA, each switch updates its local database
and invokes a procedure to compute a new topology for each MC affected by
the event.  [...]  The cost of this generality is redundancy in
computation.  In a network with n switches, a single event could trigger n
redundant computations for every existing MC.  Such high overhead renders
this protocol impractical."

The implementation shares D-GMC's substrates (flooding fabric, unicast
image, tree algorithms) so the comparison isolates the protocol logic:
every switch recomputes on every membership LSA it receives or originates,
and no proposals are exchanged (all switches compute deterministically, so
they converge to the same topology without arbitration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.core.events import JoinEvent, LeaveEvent
from repro.core.mc import ConnectionRegistrar, ConnectionSpec, Role, default_role
from repro.lsr.flooding import FloodingFabric
from repro.lsr.router import bring_up_unicast
from repro.obs import tracer as obs_tracer
from repro.obs.attach import attach_network_metrics
from repro.sim.kernel import Facility, Hold, Simulator
from repro.topo.graph import Network
from repro.trees.base import McTopology


@dataclass(frozen=True)
class MembershipLsa:
    """A flooded group-membership advertisement."""

    source: int
    connection_id: int
    join: bool
    role: Optional[Role]


class _BruteForceSwitchState:
    """Per-switch, per-connection state: member list + installed topology."""

    def __init__(self, spec: ConnectionSpec, n: int) -> None:
        self.spec = spec
        self.members: Dict[int, frozenset] = {}
        self.installed: Optional[McTopology] = None
        self.algorithm = spec.make_algorithm()
        self.last_install_time = 0.0


class BruteForceNetwork(ConnectionRegistrar):
    """A network running the brute-force event-driven MC protocol."""

    def __init__(
        self,
        net: Network,
        compute_time: float = 1.0,
        per_hop_delay: float = 0.05,
        sim: Optional[Simulator] = None,
    ) -> None:
        self.net = net
        self.compute_time = compute_time
        self.sim = sim or Simulator()
        self.fabric = FloodingFabric(self.sim, net, per_hop_delay, self._deliver)
        self.routers = bring_up_unicast(net, self.fabric)
        self.connection_registry: Dict[int, ConnectionSpec] = {}
        self.states: Dict[int, Dict[int, _BruteForceSwitchState]] = {
            x: {} for x in net.switches()
        }
        self.cpus: Dict[int, Facility] = {
            x: Facility(self.sim) for x in net.switches()
        }
        self.events_injected = 0
        #: Per-computation records (time, switch, connection), mirroring
        #: DgmcNetwork.computation_log for load-distribution analysis.
        self.computation_log: list = []
        self.metrics = attach_network_metrics(self)
        self.fabric.bind_metrics(self.metrics)

    def _state(self, switch: int, connection_id: int) -> _BruteForceSwitchState:
        per_switch = self.states[switch]
        if connection_id not in per_switch:
            spec = self.connection_registry[connection_id]
            per_switch[connection_id] = _BruteForceSwitchState(spec, self.net.n)
        return per_switch[connection_id]

    # -- events ---------------------------------------------------------------

    def inject(self, event: Union[JoinEvent, LeaveEvent], at: float) -> None:
        """Schedule a membership event for simulated time ``at``."""
        if not isinstance(event, (JoinEvent, LeaveEvent)):
            raise TypeError(f"unknown event {event!r}")
        self.sim.schedule_at(at, lambda: self._fire(event))

    def _fire(self, event: Union[JoinEvent, LeaveEvent]) -> None:
        self.events_injected += 1
        join = isinstance(event, JoinEvent)
        lsa = MembershipLsa(
            event.switch, event.connection_id, join, event.role if join else None
        )
        self._apply(event.switch, lsa)  # the origin updates and recomputes too
        self.fabric.flood(event.switch, lsa, kind="mc")

    def _deliver(self, dests: Sequence[int], payload) -> None:
        if isinstance(payload, MembershipLsa):
            for x in dests:
                self._apply(x, payload)
        # non-MC LSAs would be handled by the unicast router; the baseline
        # experiments only exercise membership dynamics.

    def _apply(self, switch: int, lsa: MembershipLsa) -> None:
        state = self._state(switch, lsa.connection_id)
        if lsa.join:
            role = lsa.role if lsa.role is not None else default_role(state.spec.ctype)
            roles = state.members.get(lsa.source, frozenset())
            state.members[lsa.source] = roles | role.as_role_set()
        else:
            state.members.pop(lsa.source, None)
        self.sim.spawn(self._recompute(switch, state))

    def _recompute(self, switch: int, state: _BruteForceSwitchState):
        """Every membership LSA costs one full topology computation."""
        members = dict(state.members)
        image = self.routers[switch].network_image()
        previous = state.installed
        yield self.cpus[switch].request()
        try:
            yield Hold(self.compute_time)
        finally:
            self.cpus[switch].release()
        from repro.core.protocol import ComputationRecord

        self.computation_log.append(
            ComputationRecord(self.sim.now, switch, state.spec.connection_id)
        )
        if not members:
            state.installed = McTopology.empty()
        else:
            tracer = obs_tracer.TRACER
            if not tracer.enabled:
                state.installed = state.algorithm.compute(image, members, previous)
            else:
                with tracer.span(
                    "compute",
                    cat="arbitration",
                    tid=switch,
                    sim_time=self.sim.now,
                    protocol="brute-force",
                    connection=state.spec.connection_id,
                    members=len(members),
                ):
                    state.installed = state.algorithm.compute(
                        image, members, previous
                    )
        state.last_install_time = self.sim.now

    # -- inspection -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def quiescent(self) -> bool:
        return self.sim.peek() is None

    def total_computations(self) -> int:
        return len(self.computation_log)

    def mc_floodings(self) -> int:
        return self.fabric.count_for("mc")

    def last_install_time(self, connection_id: int) -> float:
        times = [
            st.last_install_time
            for per_switch in self.states.values()
            for cid, st in per_switch.items()
            if cid == connection_id
        ]
        return max(times) if times else 0.0

    def agreement(self, connection_id: int) -> Tuple[bool, str]:
        """``(ok, detail)``: every switch holding the connection has the
        same members and topology (after quiescence)."""
        snapshots = {
            x: (sorted(per_switch[connection_id].members.items()),
                per_switch[connection_id].installed)
            for x, per_switch in self.states.items()
            if connection_id in per_switch
        }
        first = min(snapshots, default=None)
        differ = [x for x, snap in snapshots.items() if snap != snapshots[first]]
        if differ:
            return False, (
                f"connection {connection_id}: switches {differ} disagree "
                f"with switch {first}"
            )
        return True, f"connection {connection_id}: {len(snapshots)} switches agree"
