"""One live protocol host: a D-GMC switch driven by incoming datagrams.

A :class:`LiveSwitch` wraps the *unmodified* protocol entities -- a
:class:`~repro.core.switch.DgmcSwitch` and a
:class:`~repro.lsr.router.UnicastRouter` -- in an asyncio pump.  The
protocol bodies are generator processes written against the simulation
kernel; here each host owns a private :class:`~repro.sim.kernel.Simulator`
that serves purely as the host's *local* scheduler: incoming datagrams and
local events enqueue work, and the pump task drains the local kernel,
optionally stretching simulated compute time (Tc) into wall time via
``time_scale`` so LSAs can genuinely race into computation windows.

Outbound flooding goes through :class:`LiveFloodOut`, which
origin-broadcasts each LSA to every peer over the shared
:class:`~repro.lsr.flooding.Transport` (reliable datagrams stand in for
hop-by-hop flooding; see docs/live-runtime.md for the fidelity notes).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core.events import JoinEvent, LeaveEvent
from repro.core.lsa import McEvent, McLsa
from repro.core.mc import ConnectionSpec
from repro.core.protocol import ProtocolConfig
from repro.core.state import McState
from repro.core.switch import DgmcSwitch
from repro.core.timestamp import Stamp
from repro.lsr.flooding import Transport
from repro.lsr.lsa import NonMcLsa, RouterLsa
from repro.lsr.router import UnicastRouter
from repro.net.resync import ResyncManager
from repro.obs.metrics import MetricsRegistry
from repro.obs import tracer as obs_tracer
from repro.obs.context import TraceContext
from repro.sim.kernel import Simulator
from repro.topo.graph import Network


class LiveFloodOut:
    """Host-side flooding client: origin-broadcast over the transport.

    A flood is one :meth:`~repro.lsr.flooding.Transport.send_flood` to
    every peer but the origin, the seam ``FloodingFabric`` uses too (the
    modelled delay is 0: the wire supplies its own).  Keeps the same
    counters as the simulated fabric (``flood_counts`` /
    ``delivery_count``) so diagnostics carry over.
    """

    def __init__(self, transport: Transport, switch_id: int, peers: Iterable[int]) -> None:
        self.transport = transport
        self.switch_id = switch_id
        self.peers = sorted(peers)
        self.flood_counts: Dict[str, int] = {}
        self.delivery_count = 0
        #: Causal context stamped onto ctx-less payloads flooded while it
        #: is set.  The unicast router floods non-MC LSAs synchronously
        #: from :meth:`LiveSwitch.fire_link`, which sets this around the
        #: call so link-event floods join the link event's causal chain.
        self.current_ctx: Optional[TraceContext] = None

    def flood(self, origin: int, payload: Any, kind: str = "lsa") -> None:
        self.flood_counts[kind] = self.flood_counts.get(kind, 0) + 1
        if self.current_ctx is not None and getattr(payload, "ctx", None) is None:
            # The LSA dataclasses are frozen; ctx is observability-only
            # metadata (compare=False), so back-stamping is safe.
            object.__setattr__(payload, "ctx", self.current_ctx)
        delays = {dest: 0.0 for dest in self.peers if dest != origin}
        self.transport.send_flood(origin, payload, delays)
        self.delivery_count += len(delays)

    @property
    def total_floods(self) -> int:
        return sum(self.flood_counts.values())

    def count_for(self, kind: str) -> int:
        return self.flood_counts.get(kind, 0)


class LiveSwitch:
    """One switch as a live asyncio host."""

    def __init__(
        self,
        switch_id: int,
        net: Network,
        config: ProtocolConfig,
        transport: Transport,
        connection_registry: Optional[Dict[int, ConnectionSpec]] = None,
        time_scale: float = 0.0,
        on_computation: Optional[Callable[[int, int], None]] = None,
        on_install: Optional[Callable[[int, int, Stamp, int], None]] = None,
        generation: int = 1,
        hello_interval: float = 0.0,
        dead_interval: float = 0.0,
        cold_boot: bool = False,
        on_pump_failure: Optional[Callable[[int, BaseException], None]] = None,
    ) -> None:
        self.switch_id = switch_id
        #: Host-local copy of the physical network (its own address space);
        #: it only informs this host's router LSAs and link-event handling.
        self.net = net
        self.sim = Simulator()
        self.time_scale = time_scale
        self.flood_out = LiveFloodOut(transport, switch_id, net.switches())
        self.router = UnicastRouter(switch_id, net, self.flood_out)
        self.connection_registry: Dict[int, ConnectionSpec] = (
            connection_registry if connection_registry is not None else {}
        )
        self.switch = DgmcSwitch(
            self.sim,
            switch_id,
            net.n,
            self.router,
            self.flood_out,
            config,
            self.connection_registry,
            on_computation=on_computation,
            on_install=on_install,
        )
        self.config = config
        #: The deployment's shared registry when the transport has one.
        self.metrics: MetricsRegistry = getattr(transport, "metrics", None)
        if self.metrics is None:
            self.metrics = MetricsRegistry()
        self._duplicate_lsas = self.metrics.counter(
            "lsa_duplicates_total", "stale non-MC LSAs rejected on receive"
        )
        #: Hello cadence (0 disables failure detection entirely).
        self.hello_interval = hello_interval
        #: Silence span after which a neighbor is declared dead.  The
        #: default of 8 hello intervals makes a false positive need 8
        #: consecutive injected losses (1e-8 at 10% loss) while staying
        #: well under a chaos schedule's settling windows.
        self.dead_interval = (
            dead_interval if dead_interval > 0 else 8.0 * hello_interval
        )
        self.resync = ResyncManager(
            self,
            transport,
            metrics=self.metrics,
            generation=generation,
            cold_boot=cold_boot,
        )
        self._wake = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._hello_task: Optional[asyncio.Task] = None
        self._pumping = False
        self._stopped = False
        #: Called with (switch id, exception) if the pump task dies.
        self.on_pump_failure = on_pump_failure
        #: Per-host mint counter for causal trace contexts.
        self._ctx_seq = 0
        #: Optional :class:`~repro.obs.slo.SloTracker` (set by the fabric).
        self.slo = None

    # -- causal context minting ------------------------------------------------

    def mint_ctx(self, cause: str, connection_id: int = -1) -> TraceContext:
        """Mint the causal context for a cause born at this host."""
        self._ctx_seq += 1
        return TraceContext(self.switch_id, connection_id, cause, self._ctx_seq)

    # -- boot ---------------------------------------------------------------

    def seed_converged_lsdb(self) -> None:
        """Populate the LSDB as if the initial unicast flood completed.

        The paper's setting: membership events arrive on a stable,
        converged network.  Every host derives its peers' initial router
        LSAs from its own (identical) boot-time topology copy, so no boot
        flood storm crosses the wire.
        """
        self.router.originate(flood=False)
        for y in self.net.switches():
            if y == self.switch_id:
                continue
            links = tuple(
                (link.other(y), link.delay, link.up)
                for link in sorted(
                    (
                        self.net.link(y, nbr)
                        for nbr in self.net.neighbors(y, include_down=True)
                    ),
                    key=lambda lk: lk.key,
                )
            )
            self.router.lsdb.install(RouterLsa(y, 1, links))

    def boot_cold(self) -> None:
        """Boot after a crash: own LSA only, everything else via resync.

        The counterpart of :meth:`seed_converged_lsdb` for recovery: the
        LSDB starts with just this switch's (generation-1) router LSA and
        is completed by the neighbor database exchange -- including the
        OSPF self-originated-sequence jump when a peer still holds this
        switch's pre-crash LSA (see :mod:`repro.net.resync`).
        """
        self.router.originate(flood=False)

    # -- transport-facing ingestion -------------------------------------------

    def handle_control(self, dest: int, frame: Any) -> None:
        """Transport control handler (HELLO / DBD / SNAP / LSU frames)."""
        if dest != self.switch_id:  # pragma: no cover - transport bug guard
            raise ValueError(f"host {self.switch_id} got a control frame for {dest}")
        self.resync.handle(frame, asyncio.get_running_loop().time())
        # Resync handlers may spawn local protocol work (link events,
        # triggered re-proposals); make sure the pump notices it.
        self._wake.set()

    def ingest(self, dest: int, payload: Any) -> None:
        """Transport delivery handler (:data:`~repro.lsr.flooding.DeliverFn`)."""
        if dest != self.switch_id:  # pragma: no cover - transport bug guard
            raise ValueError(f"host {self.switch_id} got a frame for {dest}")
        if isinstance(payload, McLsa):
            if not self.admit(
                payload.source, payload.timestamp.span(), payload.connection_id
            ):
                return
            self.switch.deliver_mc_lsa(payload)
        elif isinstance(payload, NonMcLsa):
            if self.router.receive(payload):
                self.resync.lsdb_grew()
            else:
                self._duplicate_lsas.inc()  # stale copy, already installed
        else:  # pragma: no cover - transport bug guard
            raise TypeError(f"unexpected payload {payload!r}")
        self._wake.set()

    def admit(self, source: int, span: int, connection_id: int) -> bool:
        """Semantic check of a decoded MC LSA's or snapshot's indices:
        its source, the :meth:`~repro.core.timestamp.VectorTimestamp.span`
        of its stamp(s), and its connection id.

        A frame can decode cleanly and still name switches this network
        does not have; arbitrating on one would plant an origin in E that
        R can never reach (``R >= E`` false forever: the connection stops
        proposing).  One naming a connection that is not provisioned
        would raise out of the datagram callback when the switch looks up
        its spec.  Such frames are dropped here, before arbitration, and
        counted by reason.
        """
        n = self.net.n
        if source >= n:
            reason = "source-out-of-range"
        elif span > n:
            reason = "stamp-origin-out-of-range"
        elif connection_id not in self.connection_registry:
            reason = "unknown-connection"
        else:
            return True
        self.metrics.counter(
            "live_rejected_total",
            "decoded frames dropped by semantic validation at ingest",
            reason=reason,
        ).inc()
        return False

    # -- local event injection ---------------------------------------------------

    def fire_membership(self, event) -> None:
        """Run EventHandler() for a local join/leave.

        Mints the event's causal trace context and opens its convergence
        SLO chain: the predicted post-event member set is what every
        member must install against before the chain counts as
        converged (a leave emptying the connection is the degenerate
        zero-member case -- nothing to install, converged immediately).
        """
        state = self.switch.states.get(event.connection_id)
        members = set(state.members) if state is not None else set()
        if isinstance(event, JoinEvent):
            kind, role = McEvent.JOIN, event.role
            cause = "join" if members else "request"
            predicted = members | {self.switch_id}
        elif isinstance(event, LeaveEvent):
            kind, role = McEvent.LEAVE, None
            cause = "leave"
            predicted = members - {self.switch_id}
        else:
            raise TypeError(f"not a membership event: {event!r}")
        ctx = self.mint_ctx(cause, event.connection_id)
        if self.slo is not None:
            self.slo.begin(ctx, predicted)
        self.switch.spawn_event_handler(
            kind, event.connection_id, role=role, ctx=ctx
        )
        self._wake.set()

    def apply_link_state(self, u: int, v: int, up: bool) -> None:
        """Record a link change this host observes but does not announce.

        A down observed at a non-announcing endpoint still switches the
        local data plane over to any covering backup fragment: fast
        reroute activates at *both* endpoints of the failed edge, before
        the detector's LSA flood arrives.
        """
        self.net.set_link_state(u, v, up)
        if not up:
            self._record_frr(None, self.switch.activate_frr(u, v))

    def _record_frr(self, ctx: Optional[TraceContext], activated: List[int]) -> None:
        if activated and self.slo is not None:
            self.slo.record_frr_activation(ctx, len(activated))

    def fire_link(self, u: int, v: int, up: bool) -> List[int]:
        """This host detects an incident link change (Figure 2's detector).

        What the detector does -- fast reroute, exactly one non-MC LSA,
        then one MC link event per affected connection -- is
        :meth:`DgmcSwitch.detect_link_change`, the method the simulator
        and the model checker run; returns the affected connection ids.
        One causal context is minted per detected change (hello-declared
        deaths arrive here too, via :meth:`~repro.net.resync.
        ResyncManager.check_dead`) and shared by the unicast flood and
        every MC repair it provokes; a link-down with affected
        connections opens a failure-to-repair SLO chain.
        """
        ctx = self.mint_ctx("link-up" if up else "link-down")
        self.net.set_link_state(u, v, up)
        # The router floods its non-MC LSA synchronously inside the call.
        self.flood_out.current_ctx = ctx
        try:
            affected, activated = self.switch.detect_link_change(u, v, up, ctx=ctx)
        finally:
            self.flood_out.current_ctx = None
        self._record_frr(ctx, activated)
        if self.slo is not None and affected:
            needed = set()
            for connection_id in affected:
                needed |= self.switch.states[connection_id].member_set
            self.slo.begin(ctx, needed)
        self._wake.set()
        return affected

    # -- the pump -------------------------------------------------------------

    async def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("host already started")
        self._task = asyncio.create_task(
            self._pump_loop(), name=f"live-switch-{self.switch_id}"
        )
        self._task.add_done_callback(self._pump_done)
        if self.hello_interval > 0:
            self._hello_task = asyncio.create_task(
                self._hello_loop(), name=f"hello-{self.switch_id}"
            )
            self._hello_task.add_done_callback(self._pump_done)

    def _pump_done(self, task: asyncio.Task) -> None:
        """Done callback of the pump and hello tasks: report a death."""
        if task.cancelled() or task.exception() is None:
            return
        if self.on_pump_failure is not None:
            self.on_pump_failure(self.switch_id, task.exception())

    async def stop(self) -> None:
        """Graceful shutdown: stop pumping and wait for the task to exit.

        A pump or hello task that died is not re-raised here: it was
        reported through ``on_pump_failure`` when it died.
        """
        self._stopped = True
        self._wake.set()
        if self._hello_task is not None:
            self._hello_task.cancel()
            await asyncio.wait([self._hello_task])
            self._hello_task = None
        if self._task is not None:
            await asyncio.wait([self._task])
            self._task = None

    async def _hello_loop(self) -> None:
        """Fire hellos and run the dead-neighbor check on a fixed cadence."""
        loop = asyncio.get_running_loop()
        self.resync.mark_boot(loop.time())
        while not self._stopped:
            self.resync.send_hellos()
            self.resync.check_dead(loop.time())
            await asyncio.sleep(self.hello_interval)

    async def _pump_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._stopped:
                return
            self._pumping = True
            try:
                while True:
                    nxt = self.sim.peek()
                    if nxt is None:
                        break
                    dt = nxt - self.sim.now
                    if dt > 0 and self.time_scale > 0:
                        await asyncio.sleep(dt * self.time_scale)
                    else:
                        # Yield so datagrams can interleave between steps.
                        await asyncio.sleep(0)
                    if self._stopped:
                        return
                    tracer = obs_tracer.TRACER
                    if tracer.enabled:
                        # Every span the protocol opens during this step
                        # lands in this host's Perfetto lane.
                        with tracer.lane(self.switch_id):
                            self.sim.step()
                    else:
                        self.sim.step()
            finally:
                self._pumping = False

    @property
    def idle(self) -> bool:
        """Quiescent: nothing queued locally and the pump has drained.

        Part of the fabric-wide quiescence barrier (a woken-but-not-yet-
        pumped host has ``_wake`` set; a pending ReceiveLSA() wake or
        first step is an entry in the kernel's FIFO, not its heap).
        """
        return (
            not self._pumping
            and not self._wake.is_set()
            and self.sim.peek() is None
            and self.switch.mailboxes_empty
        )

    # -- inspection ----------------------------------------------------------------

    @property
    def states(self) -> Dict[int, McState]:
        return self.switch.states

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LiveSwitch(id={self.switch_id}, "
            f"connections={sorted(self.switch.states)})"
        )
