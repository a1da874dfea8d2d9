"""The live orchestrator: boot N switches on loopback and drive a workload.

:class:`LiveFabric` is the live counterpart of
:class:`~repro.core.protocol.DgmcNetwork`: it boots one
:class:`~repro.net.host.LiveSwitch` per switch of a ``topo`` graph over a
shared :class:`~repro.net.transport.UdpTransport`, injects join / leave /
link events from the same ``workloads`` event vocabulary, and exposes the
same inspection surface (``states_for`` / ``agreement``) over the final
:class:`~repro.core.state.McState`\\ s.

:meth:`LiveFabric.run` applies the injected events in schedule order with
a quiescence barrier between consecutive events; with zero injected loss
this reproduces the discrete-event run of a well-separated schedule
byte-for-byte (the equivalence harness relies on it).  Events that should
race on the wire are fired back to back with :meth:`LiveFabric.fire_event`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.events import JoinEvent, LeaveEvent, LinkEvent, NodeEvent
from repro.core.invariants import InstallLog, check_agreement
from repro.core.mc import ConnectionRegistrar, ConnectionSpec
from repro.core.protocol import ProtocolConfig
from repro.core.state import McState
from repro.core.switch import ReceiveMemo
from repro.core.timestamp import Stamp
from repro.lsr.spfcache import SolvedImages
from repro.net.faults import FaultPlan
from repro.net.host import LiveSwitch
from repro.net.transport import RetransmitPolicy, UdpTransport
from repro.obs import flight
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloTracker
from repro.topo.graph import Network


@dataclass
class LiveConfig:
    """Knobs of the live runtime (transport, quiescence, failure detection)."""

    #: Injected datagram faults (loss / reorder / delay), seeded.
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: Ack/retransmit policy of the UDP transport.
    policy: RetransmitPolicy = field(default_factory=RetransmitPolicy)
    host: str = "127.0.0.1"
    #: Hard cap on any single quiescence wait, wall seconds.
    quiesce_timeout: float = 30.0
    #: Poll interval of the quiescence barrier, wall seconds.
    poll_interval: float = 0.005
    #: Consecutive idle polls required before declaring quiescence.
    settle_polls: int = 2
    #: Hello keepalive cadence, wall seconds (0 disables failure
    #: detection and resync).  A neighbor silent for eight of them is
    #: declared dead (:attr:`LiveSwitch.dead_interval`).
    hello_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.hello_interval < 0:
            raise ValueError("hello_interval must be >= 0")


class QuiescenceTimeout(RuntimeError):
    """The fabric did not settle within ``quiesce_timeout``."""


class PumpFailure(RuntimeError):
    """A host's pump task died; ``__cause__`` is the exception it raised.

    A dead pump never drains its host again, so the barrier fails at its
    next poll instead of waiting out ``quiesce_timeout``.
    """


class LiveFabric(ConnectionRegistrar):
    """A complete live D-GMC deployment on loopback UDP."""

    def __init__(
        self,
        net: Network,
        config: Optional[ProtocolConfig] = None,
        live: Optional[LiveConfig] = None,
    ) -> None:
        self.net = net
        self.config = config or ProtocolConfig()
        self.live = live or LiveConfig()
        #: Obs registry shared with the transport (live_* counters).
        self.metrics = MetricsRegistry()
        #: Convergence SLO tracker: opened by the hosts (cause minting),
        #: fed by the transport (control overhead) and by every install.
        self.slo = SloTracker(self.metrics)
        self.transport = UdpTransport(
            net.switches(),
            faults=self.live.faults,
            policy=self.live.policy,
            host=self.live.host,
            metrics=self.metrics,
        )
        self.transport.slo = self.slo
        self.hosts: Dict[int, LiveSwitch] = {}
        #: Connection provisioning database, shared by every host (static
        #: config, like the paper's pre-registered MC identifiers).
        self.connection_registry: Dict[int, ConnectionSpec] = {}
        #: The hosts share one process, so they share one table of solved
        #: SPF images (a restarted host too).
        self.solved = SolvedImages()
        #: ... and one table of ReceiveLSA() transitions.
        self.receive_memo = ReceiveMemo()
        self._pending_events: List[Tuple[float, int, Any]] = []
        self._event_seq = 0
        self._started = False
        self._shut_down = False
        self.events_injected = 0
        self.install_log = InstallLog()
        #: Boot generation per switch (bumped by every restart).
        self.generations: Dict[int, int] = {x: 1 for x in net.switches()}
        #: Currently crashed switches (no host object, traffic blackholed).
        self.crashed: set[int] = set()
        #: Cross-group pairs severed by the active partition (empty = none).
        self._partition_pairs: set[Tuple[int, int]] = set()
        #: Host -> the exception its pump task died of, in order of death.
        self._pump_failures: Dict[int, BaseException] = {}
        #: Whether a barrier has raised :class:`PumpFailure` yet.
        self._pump_failure_raised = False
        self._c_pump_failures = self.metrics.counter(
            "live_pump_failures_total", "host pump tasks that died with an exception"
        )

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        """Bind sockets, boot every host, seed converged unicast databases."""
        if self._started:
            raise RuntimeError("fabric already started")
        await self.transport.start()
        for x in self.net.switches():
            self.hosts[x] = self._make_host(x, generation=1, cold_boot=False)
        for host in self.hosts.values():
            host.seed_converged_lsdb()
        for host in self.hosts.values():
            await host.start()
        self._started = True

    def _make_host(self, x: int, generation: int, cold_boot: bool) -> LiveSwitch:
        """Build and register one host (boot and restart share this)."""
        host = LiveSwitch(
            x,
            self.net.copy(),
            self.config,
            self.transport,
            self.solved,
            self.receive_memo,
            connection_registry=self.connection_registry,
            on_install=self._record_install,
            generation=generation,
            hello_interval=self.live.hello_interval,
            cold_boot=cold_boot,
            on_pump_failure=self._on_pump_failure,
        )
        host.slo = self.slo
        self.transport.register(x, host.ingest)
        self.transport.register_control(x, host.handle_control)
        return host

    async def shutdown(self) -> None:
        """Graceful teardown: stop every pump, then close every socket."""
        if self._shut_down:
            return
        self._shut_down = True
        for host in self.hosts.values():
            await host.stop()
        await self.transport.stop()
        self.slo.finalize()
        # A pump death no barrier reported is raised here, once nothing is
        # left open.
        if self._pump_failures and not self._pump_failure_raised:
            self._raise_pump_failure()

    def _on_pump_failure(self, x: int, error: BaseException) -> None:
        """A host's pump task died: count it and dump the flight recorder."""
        self._pump_failures[x] = error
        self._c_pump_failures.inc()
        flight.dump_on_violation(
            "pump-failure",
            {"host": x, "error": repr(error), "diagnostics": self.quiesce_diagnostics()},
            registry=self.metrics,
        )

    def _raise_pump_failure(self) -> None:
        """Raise :class:`PumpFailure` for the first pump that died."""
        self._pump_failure_raised = True
        x, error = next(iter(self._pump_failures.items()))
        raise PumpFailure(f"host {x}'s pump died: {error!r}") from error

    def _record_install(
        self, time: float, switches: List[int], connection_id: int, stamp: Stamp,
        proposer: int,
    ) -> None:
        # ``time`` is the installing host's *local* sim clock: there is no
        # global clock in the live runtime, only per-host schedulers.
        self.install_log.record_class(time, switches, connection_id, stamp, proposer)
        for switch in switches:
            state = self.hosts[switch].switch.states.get(connection_id)
            if state is not None:
                if self.config.enable_frr:  # fragments retire only under FRR
                    self.slo.record_frr_retired(state.take_frr_retirements())
                self.slo.record_install(
                    state.trace_ctx, switch, state.member_set
                )

    # -- infrastructure failures (crash / restart / partition) -----------------

    async def crash(self, x: int) -> None:
        """Hard-kill switch ``x``: blackhole its traffic, stop its host.

        No goodbye crosses the wire -- neighbors discover the death only
        through hello silence (requires ``hello_interval > 0``).  The
        host object is discarded; all volatile protocol state (LSDB, MC
        vectors, installed trees) dies with it, exactly like a power cut.
        """
        if x not in self.hosts:
            raise ValueError(f"switch {x} is not live")
        host = self.hosts[x]
        self.transport.set_host_down(x)
        self.transport.unregister(x)
        await host.stop()
        del self.hosts[x]
        self.crashed.add(x)

    async def restart(self, x: int) -> None:
        """Cold-boot a crashed switch with a bumped boot generation.

        The new incarnation starts from an *empty* database (only its own
        freshly originated LSA) and rebuilds everything through the
        resync protocol: its generation bump makes neighbors open a
        database exchange, and ``cold_boot`` makes it pull from them --
        ``seed_converged_lsdb`` is deliberately never called here.
        """
        if x not in self.crashed:
            raise ValueError(f"switch {x} is not crashed")
        self.generations[x] += 1
        host = self._make_host(x, generation=self.generations[x], cold_boot=True)
        self.hosts[x] = host
        host.boot_cold()
        self.crashed.discard(x)
        self.transport.set_host_up(x)
        await host.start()

    def partition(self, groups: List[List[int]]) -> None:
        """Sever every cross-group switch pair (a network partition).

        Under the origin-broadcast flooding model a partition is exactly
        the set of cross-group pairs cut at the transport; in-flight
        frames across the boundary burn their retransmit budget and are
        abandoned.  One partition may be active at a time (nested
        partitions would make :meth:`heal_partition` ambiguous).
        """
        if self._partition_pairs:
            raise RuntimeError("a partition is already active; heal it first")
        seen: set[int] = set()
        for group in groups:
            overlap = seen.intersection(group)
            if overlap:
                raise ValueError(f"groups overlap on {sorted(overlap)}")
            seen.update(group)
        pairs = {
            (u, v)
            for i, g in enumerate(groups)
            for u in g
            for other in groups[i + 1 :]
            for v in other
        }
        self._partition_pairs = pairs
        self.transport.injector.cut(pairs)

    def heal_partition(self) -> None:
        """Reconnect the active partition (no-op when none is active)."""
        self.transport.injector.heal(self._partition_pairs)
        self._partition_pairs = set()

    @property
    def partitioned(self) -> bool:
        return bool(self._partition_pairs)

    def cut_links(self, pairs: List[Tuple[int, int]]) -> None:
        """Sever individual switch pairs (see docs/live-runtime.md for the
        origin-broadcast caveat: a cut silences the whole pair, which is
        stronger than one failed link on a multipath topology)."""
        self.transport.injector.cut(pairs)

    def heal_links(self, pairs: List[Tuple[int, int]]) -> None:
        self.transport.injector.heal(pairs)

    # -- event injection ------------------------------------------------------------

    def inject(self, event: Any, at: float) -> None:
        """Queue an event for the run (ordered by ``at``, then injection order)."""
        if isinstance(event, NodeEvent):
            raise NotImplementedError(
                "scheduled nodal events are not supported by the live-runtime "
                "event queue; crash and recover switches explicitly with "
                "LiveFabric.crash() / restart() (see docs/live-runtime.md)"
            )
        if not isinstance(event, (JoinEvent, LeaveEvent, LinkEvent)):
            raise TypeError(f"unknown event {event!r}")
        self._pending_events.append((at, self._event_seq, event))
        self._event_seq += 1

    def fire_event(self, event: Any) -> None:
        """Apply one membership/link event immediately, with no barrier.

        Unlike :meth:`inject` + :meth:`run` (which quiesces between
        events), back-to-back ``fire_event`` calls put their floods on the
        wire concurrently -- the chaos soak's ``race`` action uses this to
        let a membership LSA and a link LSA from the same source genuinely
        race in flight.
        """
        if not isinstance(event, (JoinEvent, LeaveEvent, LinkEvent)):
            raise TypeError(f"unknown event {event!r}")
        self._fire(event)

    def _fire(self, event: Any) -> None:
        self.events_injected += 1
        if isinstance(event, (JoinEvent, LeaveEvent)):
            self.hosts[event.switch].fire_membership(event)
        elif isinstance(event, LinkEvent):
            other = event.u if event.detector == event.v else event.v
            # Track physical reality on the fabric's own graph too, so a
            # host restarted later boots with the true incident states.
            self.net.set_link_state(event.u, event.v, event.up)
            # Both endpoints observe the physical change; only the
            # designated detector announces it (Figure 2).
            self.hosts[other].apply_link_state(event.u, event.v, event.up)
            self.hosts[event.detector].fire_link(event.u, event.v, event.up)
        else:  # pragma: no cover - inject() already filtered
            raise TypeError(f"unknown event {event!r}")

    # -- running ------------------------------------------------------------------------

    async def run(self) -> "LiveFabric":
        """Apply every injected event and settle to global quiescence:
        one barrier per event, which the last one leaves the fabric in,
        or one barrier when no event was injected."""
        if not self._started:
            await self.start()
        events = sorted(self._pending_events)
        self._pending_events = []
        for _, _, event in events:
            self._fire(event)
            await self.quiesce()
        if not events:
            await self.quiesce()
        return self

    @property
    def idle(self) -> bool:
        """Nothing in flight on the wire and every host drained."""
        return self.transport.idle and all(h.idle for h in self.hosts.values())

    async def quiesce(self, timeout: Optional[float] = None) -> None:
        """The quiescence barrier: block until the fabric is stably idle.

        ``idle`` must hold for ``settle_polls`` consecutive polls (an ack
        can be in the socket buffer while both ends look idle for one
        instant).  Raises :class:`QuiescenceTimeout` after ``timeout``
        wall seconds -- a hard guard so a lost-forever frame or a wedged
        host cannot hang a caller (or a CI job) silently -- and
        :class:`PumpFailure` at the first poll after a host's pump died.
        """
        budget = self.live.quiesce_timeout if timeout is None else timeout
        loop = asyncio.get_running_loop()
        deadline = loop.time() + budget
        consecutive = 0
        while True:
            await asyncio.sleep(self.live.poll_interval)
            if self._pump_failures:
                self._raise_pump_failure()
            if self.idle:
                consecutive += 1
                if consecutive >= self.live.settle_polls:
                    return
            else:
                consecutive = 0
            if loop.time() > deadline:
                diagnostics = self.quiesce_diagnostics()
                flight.dump_on_violation(
                    "quiescence-timeout",
                    {
                        "budget_seconds": budget,
                        "diagnostics": diagnostics,
                        "open_slo_chains": {
                            tid: {
                                "needed": sorted(needed),
                                "installed": sorted(installed),
                            }
                            for tid, (needed, installed)
                            in self.slo.open_chains().items()
                        },
                    },
                    registry=self.metrics,
                )
                raise QuiescenceTimeout(
                    f"no quiescence within {budget}s: {diagnostics}"
                )

    def quiesce_diagnostics(self) -> str:
        """One-line state dump for a stuck barrier: who is busy, and why.

        Names every non-idle host with its pump flag, wake flag, pending
        kernel entries (FIFO + heap), and queued MC LSAs, plus the transport's
        unacked frame keys -- enough to tell a wedged host from a frame
        burning its retransmit budget into a cut or a crashed peer.
        """
        busy = []
        for x, host in sorted(self.hosts.items()):
            if host.idle:
                continue
            queued = sum(
                len(host.switch.queued_lsas(cid)) for cid in host.switch.states
            )
            busy.append(
                f"host {x}(pumping={host._pumping} wake={host._wake.is_set()} "
                f"heap={host.sim.queue_depth} queued_mc={queued})"
            )
        pending = self.transport.pending_keys()
        shown = ", ".join(
            f"{src}->{dest}#{seq}" for src, dest, seq in pending[:8]
        )
        if len(pending) > 8:
            shown += f", ... {len(pending) - 8} more"
        return (
            f"{self.transport.in_flight} frames unacked"
            + (f" [{shown}]" if pending else "")
            + f"; busy hosts: {'; '.join(busy) if busy else 'none'}"
            + (f"; crashed: {sorted(self.crashed)}" if self.crashed else "")
            + (
                f"; cut pairs: {sorted(self.transport.injector.cut_pairs)}"
                if self.transport.injector.cut_pairs
                else ""
            )
        )

    # -- inspection ----------------------------------------------------------------------

    def states_for(self, connection_id: int) -> Dict[int, McState]:
        """The per-switch states currently held for a connection."""
        return {
            x: host.states[connection_id]
            for x, host in self.hosts.items()
            if connection_id in host.states
        }

    def agreement(self, connection_id: int) -> Tuple[bool, str]:
        """Global agreement after quiescence (same rule as the simulator)."""
        return check_agreement(connection_id, self.states_for(connection_id))

    def mc_floodings(self) -> int:
        return sum(h.flood_out.count_for("mc") for h in self.hosts.values())

    def counters(self) -> Dict[str, float]:
        """The runtime's obs counters: live_* transport plus resync_*/hello_*."""
        return self.transport.counters()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LiveFabric(n={self.net.n}, started={self._started}, "
            f"connections={sorted(self.connection_registry)})"
        )
