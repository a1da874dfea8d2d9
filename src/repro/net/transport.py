"""The live transport: LSAs as datagrams between switches.

Protocol code (the D-GMC switch, the unicast router, the flooding layer)
hands a payload to a :class:`~repro.lsr.flooding.Transport` and a
registered handler receives it at the destination.  The seam and its
discrete-event implementation (``KernelTransport``) live beside the
flooding fabric in :mod:`repro.lsr.flooding`; this module is the live
implementation:

* :class:`UdpTransport` -- each switch owns one UDP socket on loopback;
  payloads travel as :mod:`repro.net.frames` DATA datagrams carrying
  :mod:`repro.core.wire` bytes, with per-frame ack/retransmit,
  exponential backoff, receive-side deduplication, and seeded
  loss/reorder/delay/duplication injection (:mod:`repro.net.faults`).

Beyond the LSA path, the UDP transport carries the crash-recovery control
plane: unreliable HELLO keepalives (:meth:`UdpTransport.send_hello`) and
reliable DBD / SNAP / LSU resync frames, dispatched to a per-switch
*control handler* (:meth:`UdpTransport.register_control`).  It also
models infrastructure failures: :meth:`set_host_down` blackholes a
crashed switch, and severed pairs from the fault injector's cut set
(:meth:`~repro.net.faults.FaultInjector.cut`) drop frames
deterministically -- senders retransmit into the cut until the attempt
budget abandons the frame, exactly as on a partitioned link.

Handlers have the :data:`~repro.lsr.flooding.DeliverFn` signature
``(dest_switch, payload)``, so the same protocol delivery code runs
unchanged on either backend.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.lsr.flooding import DeliverFn, Transport
from repro.net import frames
from repro.net.faults import FaultInjector, FaultPlan
from repro.obs import tracer as obs_tracer
from repro.obs.context import TraceContext
from repro.obs.metrics import MetricsRegistry

#: Control hook signature: (destination switch id, decoded control frame).
#: Receives HelloFrame / DbdFrame / SnapFrame / LsuFrame instances.
ControlFn = Callable[[int, Any], None]

#: Receive buffer per ``recvfrom``: no UDP payload exceeds 65,507 bytes.
#: asyncio's default is 256 KiB, above glibc's 128 KiB ``mmap``
#: threshold, so each datagram would cost an ``mmap`` / ``munmap`` round
#: (+22% per operation on ``live_udp_n16``; docs/live-runtime.md).
_RECV_BUFFER = 65536


@dataclass
class _Pending:
    """One unacknowledged reliable frame awaiting ack or retransmission."""

    frame: bytes
    attempts: int = 0
    timer: Optional[asyncio.TimerHandle] = None
    delayed_sends: int = 0


@dataclass
class _PeerDedup:
    """Receive-side exactly-once state for one ``(receiver, src)`` pair.

    ``floor`` is the contiguous-prefix high-water mark: every sequence
    number at or below it has been delivered.  ``window`` holds the
    delivered sequence numbers above the floor (gaps come from abandoned
    or still-retransmitting frames); whenever the gap right above the
    floor fills, the contiguous prefix is compacted back into the floor.
    The window is bounded: on overflow the floor is forced past the
    oldest gap, so per-peer memory is O(window cap) regardless of how
    many frames a soak delivers.  A frame older than the floor whose
    *delivery* (not just its ack) is still outstanding would be wrongly
    suppressed -- impossible in practice, since stop-and-wait abandons a
    sequence number long before ``window`` more frames can follow it.
    """

    floor: int = 0
    window: Set[int] = field(default_factory=set)

    def seen(self, seq: int) -> bool:
        return seq <= self.floor or seq in self.window

    def add(self, seq: int, cap: int) -> None:
        self.window.add(seq)
        while self.floor + 1 in self.window:
            self.floor += 1
            self.window.discard(self.floor)
        while len(self.window) > cap:
            self.floor = min(self.window)
            self.window.discard(self.floor)
            while self.floor + 1 in self.window:
                self.floor += 1
                self.window.discard(self.floor)


@dataclass
class RetransmitPolicy:
    """Ack/retransmit knobs of the UDP transport.

    ``rto`` is the initial retransmission timeout; each unacknowledged
    attempt doubles it up to ``rto_max``.  After ``max_attempts``
    transmissions the frame is abandoned and counted as a delivery
    failure (the protocol above must then live with the gap, exactly as
    with a partitioned link).
    """

    rto: float = 0.02
    rto_max: float = 0.5
    max_attempts: int = 25

    def timeout(self, attempts: int) -> float:
        return min(self.rto * (2 ** max(attempts - 1, 0)), self.rto_max)


class _Endpoint(asyncio.DatagramProtocol):
    """asyncio protocol glue: one instance per switch socket."""

    def __init__(self, owner: "UdpTransport", switch_id: int) -> None:
        self.owner = owner
        self.switch_id = switch_id

    def datagram_received(self, data: bytes, addr) -> None:
        self.owner._on_datagram(self.switch_id, data, addr)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        self.owner._socket_errors += 1


class UdpTransport(Transport):
    """Real datagrams: one UDP socket per switch on loopback.

    Reliability is per-frame stop-and-wait with cumulative-free acks:
    every reliable frame (DATA / DBD / SNAP / LSU) is retransmitted on an
    exponential-backoff timer until its ACK arrives (or the attempt
    budget runs out), and receivers acknowledge every copy but deliver
    only the first -- duplicates and reordering from the fault injector
    (or the OS) never reach the protocol twice.  HELLO keepalives are
    deliberately unreliable: a lost hello is the failure signal itself.

    The per-``(src, dest)`` sequence space belongs to the *transport*,
    not to the hosts riding on it, and therefore survives a host restart
    (like TCP's kernel-owned port state): a restarted switch keeps
    counting where its predecessor stopped, so peers' dedup windows need
    no reset handshake.

    Receive-side deduplication keeps O(1) state per peer pair: an
    ack-floor plus a bounded out-of-order window with contiguous-prefix
    compaction (see :class:`_PeerDedup`).  Frames are independent (no
    pipelining window), which is fine at control-plane LSA rates; see
    docs/live-runtime.md for the remaining fidelity notes.
    """

    def __init__(
        self,
        switch_ids: Iterable[int],
        faults: Optional[FaultPlan] = None,
        policy: Optional[RetransmitPolicy] = None,
        host: str = "127.0.0.1",
        metrics: Optional[MetricsRegistry] = None,
        dedup_window: int = 512,
    ) -> None:
        self.switch_ids: List[int] = sorted(switch_ids)
        self.policy = policy or RetransmitPolicy()
        self.host = host
        self.injector = FaultInjector(faults or FaultPlan())
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._handlers: Dict[int, DeliverFn] = {}
        self._control: Dict[int, ControlFn] = {}
        self._endpoints: Dict[int, asyncio.DatagramTransport] = {}
        self._addrs: Dict[int, Tuple[str, int]] = {}
        self._seq: Dict[Tuple[int, int], int] = {}
        self._pending: Dict[Tuple[int, int, int], _Pending] = {}
        #: (receiver, src) -> bounded exactly-once dedup state.
        self._dedup: Dict[Tuple[int, int], _PeerDedup] = {}
        #: Out-of-order window cap per peer pair (see :class:`_PeerDedup`).
        self.dedup_window = dedup_window
        #: Crashed switches: frames from or to them are blackholed.
        self._down: Set[int] = set()
        self._delayed_frames = 0
        #: Live injected-delay call_later handles, so stop() can cancel
        #: them instead of leaving stray timers on the loop.
        self._delay_handles: Dict[int, asyncio.TimerHandle] = {}
        self._delay_token = 0
        self._started = False
        self._closed = False
        self._socket_errors = 0
        #: Optional :class:`~repro.obs.slo.SloTracker` (set by the fabric);
        #: fed the cause of every reliable frame queued so control-message
        #: overhead is attributable per cause kind.
        self.slo = None
        reg = self.metrics
        self._c_data_sent = reg.counter(
            "live_datagrams_sent_total",
            "reliable-frame transmission attempts put on the wire",
        )
        self._c_data_recv = reg.counter(
            "live_datagrams_received_total",
            "reliable frames received from the socket",
        )
        self._c_acks_sent = reg.counter(
            "live_acks_sent_total", "ACK frames put on the wire"
        )
        self._c_acks_recv = reg.counter(
            "live_acks_received_total", "ACK frames received from the socket"
        )
        self._c_retransmits = reg.counter(
            "live_retransmits_total", "reliable frames retransmitted after an RTO"
        )
        self._c_drops = reg.counter(
            "live_drops_injected_total", "transmission attempts dropped by fault injection"
        )
        self._c_reorders = reg.counter(
            "live_reorders_injected_total", "frames held back by reorder injection"
        )
        self._c_dupes_injected = reg.counter(
            "live_duplicates_injected_total",
            "wire duplicates created by duplicate-rate injection",
        )
        self._c_dupes = reg.counter(
            "live_duplicates_dropped_total", "duplicate reliable frames suppressed at receive"
        )
        self._c_decode_errors = reg.counter(
            "live_decode_errors_total", "undecodable datagrams discarded"
        )
        self._c_failures = reg.counter(
            "live_delivery_failures_total", "frames abandoned after the attempt budget"
        )
        self._c_hellos_sent = reg.counter(
            "live_hellos_sent_total", "HELLO keepalives put on the wire"
        )
        self._c_hellos_recv = reg.counter(
            "live_hellos_received_total", "HELLO keepalives received from the socket"
        )
        self._c_cut_drops = reg.counter(
            "live_cut_drops_total", "frames dropped on a severed (cut) switch pair"
        )
        self._c_blackholed = reg.counter(
            "live_blackholed_total", "frames dropped to or from a crashed switch"
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind one UDP socket per switch (ephemeral loopback ports)."""
        if self._started:
            raise RuntimeError("transport already started")
        loop = asyncio.get_running_loop()
        for x in self.switch_ids:
            transport, _ = await loop.create_datagram_endpoint(
                lambda x=x: _Endpoint(self, x), local_addr=(self.host, 0)
            )
            transport.max_size = _RECV_BUFFER
            self._endpoints[x] = transport
            sockname = transport.get_extra_info("sockname")
            self._addrs[x] = (sockname[0], sockname[1])
        self._started = True

    async def stop(self) -> None:
        """Cancel every live timer and close all sockets.

        Both retransmit timers *and* injected-delay timers are cancelled,
        leaving nothing of this transport scheduled on the loop.
        """
        self._closed = True
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()
        for handle in self._delay_handles.values():
            handle.cancel()
        self._delay_handles.clear()
        self._delayed_frames = 0
        for transport in self._endpoints.values():
            transport.close()
        # Give the loop one tick to run the close callbacks.
        await asyncio.sleep(0)

    def port_of(self, switch_id: int) -> int:
        """The UDP port bound for ``switch_id`` (after :meth:`start`)."""
        return self._addrs[switch_id][1]

    # -- Transport interface ---------------------------------------------------

    def register(self, switch_id: int, handler: DeliverFn) -> None:
        if switch_id in self._handlers:
            raise ValueError(f"switch {switch_id} already registered")
        self._handlers[switch_id] = handler

    def register_control(self, switch_id: int, handler: ControlFn) -> None:
        """Install the control-frame handler (HELLO / DBD / SNAP / LSU)."""
        if switch_id in self._control:
            raise ValueError(f"switch {switch_id} already has a control handler")
        self._control[switch_id] = handler

    def unregister(self, switch_id: int) -> None:
        """Remove a switch's handlers (host crash/teardown; idempotent).

        The socket stays bound -- a restarted incarnation re-registers on
        the same endpoint, so peers keep a stable address per switch id.
        """
        self._handlers.pop(switch_id, None)
        self._control.pop(switch_id, None)

    def has_handler(self, switch_id: int) -> bool:
        return switch_id in self._handlers

    @property
    def handler_count(self) -> int:
        return len(self._handlers)

    @property
    def idle(self) -> bool:
        """No unacknowledged frames and no injected-delay frames queued."""
        return not self._pending and self._delayed_frames == 0

    @property
    def in_flight(self) -> int:
        """Unacknowledged reliable frames currently tracked."""
        return len(self._pending)

    def pending_keys(self) -> List[Tuple[int, int, int]]:
        """The (src, dest, seq) keys currently awaiting acks (diagnostic)."""
        return sorted(self._pending)

    # -- crash modelling ---------------------------------------------------------

    def set_host_down(self, switch_id: int) -> None:
        """Blackhole a crashed switch: frames from or to it are dropped.

        Reliable frames already in flight toward (or from) the switch are
        abandoned immediately and counted as delivery failures -- their
        senders would otherwise just burn their whole attempt budget into
        the blackhole, wedging the quiescence barrier for no information.
        """
        self._down.add(switch_id)
        for key in [
            k for k in self._pending if k[0] == switch_id or k[1] == switch_id
        ]:
            pending = self._pending.pop(key)
            if pending.timer is not None:
                pending.timer.cancel()
            self._c_failures.inc()

    def set_host_up(self, switch_id: int) -> None:
        """Lift the blackhole after a restart (idempotent).

        Sequence counters and peers' dedup windows are intentionally
        *not* reset: the sequence space is transport-owned and outlives
        host incarnations (see the class docstring).
        """
        self._down.discard(switch_id)

    def is_host_down(self, switch_id: int) -> bool:
        return switch_id in self._down

    # -- send paths ---------------------------------------------------------------

    def send(
        self, src: int, dest: int, payload: Any, delay: float = 0.0,
        body: Optional[bytes] = None,
    ) -> None:
        """Queue one reliable DATA datagram from ``src`` to ``dest``.

        ``body`` is the payload's :func:`~repro.net.frames.data_body` when
        the caller encoded it already (:meth:`send_flood` does, once per
        flood); only the frame header is then built here.  Must be called
        from within the running event loop (protocol code executes inside
        host pump tasks, so this holds by construction).
        """
        self._queue_reliable(
            src, dest,
            lambda seq: frames.encode_data(src, dest, seq, payload, body),
            ctx=getattr(payload, "ctx", None),
        )

    def send_flood(self, src: int, payload: Any, delays: Dict[int, float]) -> None:
        """One flood: encode the DATA body once, then one :meth:`send` per
        destination in ``delays`` order, each splicing its own header.

        The body lives for this call only; a retransmit resends the frame
        its first send built.
        """
        body = frames.data_body(payload)
        for dest in delays:
            self.send(src, dest, payload, body=body)

    def send_dbd(
        self, src: int, dest: int, headers: Dict[int, int], reply: bool = False
    ) -> None:
        """Queue one reliable DBD frame (LSA-header summary)."""
        self._queue_reliable(
            src, dest,
            lambda seq: frames.encode_dbd(src, dest, seq, headers, reply=reply),
        )

    def send_snap(self, src: int, dest: int, snapshot) -> None:
        """Queue one reliable SNAP frame (MC arbitration snapshot)."""
        self._queue_reliable(
            src, dest,
            lambda seq: frames.encode_snap(src, dest, seq, snapshot),
            ctx=snapshot.ctx,
        )

    def send_lsu(self, src: int, dest: int, lsa) -> None:
        """Queue one reliable LSU frame (resync LSA transfer)."""
        self._queue_reliable(
            src, dest,
            lambda seq: frames.encode_lsu(src, dest, seq, lsa),
            ctx=lsa.ctx,
        )

    def send_hello(self, src: int, dest: int, generation: int) -> None:
        """Fire one unreliable HELLO keepalive (never acked or retried)."""
        if not self._started or self._closed or dest not in self._addrs:
            return
        frame = frames.encode_hello(src, dest, generation)
        self._dispatch_frame(src, dest, frame, kind="hello")

    def _queue_reliable(
        self, src: int, dest: int, build: Callable[[int], bytes],
        ctx: Optional[TraceContext] = None,
    ) -> None:
        if not self._started:
            raise RuntimeError("transport not started")
        if self._closed or dest not in self._addrs:
            return
        if src in self._down or dest in self._down or (
            dest not in self._handlers and dest not in self._control
        ):
            # Fail fast into a known blackhole: a crashed (or torn-down)
            # endpoint can never ack, so arming the retransmit budget
            # (~25 attempts of backoff) would only wedge quiescence.  No
            # sequence number is consumed, so the dedup stream stays
            # gap-free for the surviving traffic.
            self._c_blackholed.inc()
            self._c_failures.inc()
            return
        key = (src, dest)
        seq = self._seq.get(key, 0) + 1
        self._seq[key] = seq
        self._pending[(src, dest, seq)] = _Pending(frame=build(seq))
        if ctx is not None:
            if self.slo is not None:
                self.slo.record_control(ctx.cause)
            tracer = obs_tracer.TRACER
            if tracer.enabled:
                # Flow start: one arrow tail per logical frame (retransmits
                # share it); the head is emitted at delivery.
                tracer.flow(
                    ctx.trace_id(), "s", ctx.flow_id(src, dest, seq),
                    cat="net", tid=src, pid=src, dest=dest, **ctx.to_args(),
                )
        self._transmit((src, dest, seq))

    def _transmit(self, key: Tuple[int, int, int]) -> None:
        """One transmission attempt (first send and every retransmit)."""
        pending = self._pending.get(key)
        if pending is None or self._closed:
            return
        src, dest, seq = key
        if pending.attempts >= self.policy.max_attempts:
            if pending.timer is not None:
                pending.timer.cancel()
            del self._pending[key]
            self._c_failures.inc()
            return
        pending.attempts += 1
        tracer = obs_tracer.TRACER
        if pending.attempts > 1:
            self._c_retransmits.inc()
            if tracer.enabled:
                tracer.instant(
                    "udp_retransmit", cat="net", tid=src, pid=src,
                    dest=dest, seq=seq, attempt=pending.attempts,
                )
        rto = self.policy.timeout(pending.attempts)
        pending.timer = asyncio.get_running_loop().call_later(
            rto, self._transmit, key
        )
        self._dispatch_frame(src, dest, pending.frame, kind="data")

    def _dispatch_frame(self, src: int, dest: int, frame: bytes, kind: str) -> None:
        """Apply crash/cut filters and the fault dice, then hit the wire.

        The down-host and cut checks are deterministic (no RNG draw), so
        crashing hosts or cutting links mid-run never shifts the seeded
        loss/reorder sequence of the surviving traffic.
        """
        if src in self._down or dest in self._down:
            self._c_blackholed.inc()
            return
        if self.injector.is_cut(src, dest):
            self._c_cut_drops.inc()
            return
        reordered_before = self.injector.reordered
        if self.injector.should_drop():
            self._c_drops.inc()
            return
        delay = self.injector.send_delay()
        if self.injector.reordered > reordered_before:
            self._c_reorders.inc()
        copies = 1
        if self.injector.should_duplicate():
            self._c_dupes_injected.inc()
            copies = 2
        for _ in range(copies):
            if delay > 0:
                self._delayed_frames += 1
                self._delay_token += 1
                token = self._delay_token
                self._delay_handles[token] = asyncio.get_running_loop().call_later(
                    delay, self._fire_delayed, token, src, dest, frame, kind
                )
            else:
                self._wire_send(src, dest, frame, kind, False)

    def _fire_delayed(
        self, token: int, src: int, dest: int, frame: bytes, kind: str
    ) -> None:
        self._delay_handles.pop(token, None)
        self._wire_send(src, dest, frame, kind, True)

    def _wire_send(
        self, src: int, dest: int, frame: bytes, kind: str, was_delayed: bool
    ) -> None:
        if was_delayed:
            self._delayed_frames -= 1
        if self._closed:
            return
        endpoint = self._endpoints.get(src)
        if endpoint is None or endpoint.is_closing():
            return
        tracer = obs_tracer.TRACER
        if tracer.enabled:
            with tracer.span(
                "udp_send", cat="net", tid=src, pid=src, dest=dest,
                bytes=len(frame), kind=kind,
            ):
                endpoint.sendto(frame, self._addrs[dest])
        else:
            endpoint.sendto(frame, self._addrs[dest])
        if kind == "ack":
            self._c_acks_sent.inc()
        elif kind == "hello":
            self._c_hellos_sent.inc()
        else:
            self._c_data_sent.inc()

    # -- receive path ---------------------------------------------------------------

    def _on_datagram(self, receiver: int, data: bytes, addr) -> None:
        frame = frames.try_decode_frame(data)
        if frame is None:
            self._c_decode_errors.inc()
            return
        if isinstance(frame, frames.AckFrame):
            # ``frame.src`` acknowledges; ``frame.dest`` is the original
            # sender.  Acks are type-agnostic (shared sequence space).
            self._c_acks_recv.inc()
            pending = self._pending.pop((frame.dest, frame.src, frame.seq), None)
            if pending is not None and pending.timer is not None:
                pending.timer.cancel()
            return
        if isinstance(frame, frames.HelloFrame):
            # Unreliable by design: no ack, no dedup.  Hellos are
            # idempotent liveness samples.
            self._c_hellos_recv.inc()
            handler = self._control.get(receiver)
            if handler is not None:
                handler(receiver, frame)
            return
        self._c_data_recv.inc()
        # Always re-ack (the previous ack may have been lost) ...
        self._dispatch_frame(
            receiver, frame.src,
            frames.encode_ack(receiver, frame.src, frame.seq), kind="ack",
        )
        # ... but deliver each frame to the protocol exactly once.
        dedup = self._dedup.setdefault((receiver, frame.src), _PeerDedup())
        if dedup.seen(frame.seq):
            self._c_dupes.inc()
            return
        dedup.add(frame.seq, self.dedup_window)
        if isinstance(frame, frames.DataFrame):
            handler = self._handlers.get(receiver)
            if handler is None:
                return
            lsa = frame.lsa
            ctx = getattr(lsa, "ctx", None)
            tracer = obs_tracer.TRACER
            if ctx is not None:
                # One wire traversal later: the hop counter is the receive
                # path's business, not the codec's.  The LSA was decoded
                # for this datagram alone, so the (compare=False) context
                # is bumped in place, as decode_frame attached it.
                object.__setattr__(lsa, "ctx", ctx.next_hop())
                if tracer.enabled:
                    tracer.flow(
                        ctx.trace_id(), "f",
                        ctx.flow_id(frame.src, frame.dest, frame.seq),
                        cat="net", tid=receiver, pid=receiver,
                        **ctx.to_args(),
                    )
            if tracer.enabled:
                with tracer.span(
                    "udp_recv", cat="net", tid=receiver, pid=receiver,
                    src=frame.src, seq=frame.seq,
                ):
                    handler(receiver, lsa)
            else:
                handler(receiver, lsa)
            return
        # DBD / SNAP / LSU: the resync control plane.
        control = self._control.get(receiver)
        if control is not None:
            control(receiver, self._bump_control_ctx(frame, receiver))

    def _bump_control_ctx(self, frame, receiver: int):
        """Hop-bump a SNAP/LSU frame's context and emit the flow head."""
        if isinstance(frame, frames.SnapFrame):
            ctx = frame.snapshot.ctx
            if ctx is None:
                return frame
            bumped = replace(
                frame, snapshot=replace(frame.snapshot, ctx=ctx.next_hop())
            )
        elif isinstance(frame, frames.LsuFrame):
            ctx = frame.lsa.ctx
            if ctx is None:
                return frame
            bumped = replace(frame, lsa=replace(frame.lsa, ctx=ctx.next_hop()))
        else:
            return frame
        tracer = obs_tracer.TRACER
        if tracer.enabled:
            tracer.flow(
                ctx.trace_id(), "f",
                ctx.flow_id(frame.src, frame.dest, frame.seq),
                cat="net", tid=receiver, pid=receiver, **ctx.to_args(),
            )
        return bumped

    def dedup_state(self, receiver: int, src: int) -> Tuple[int, int]:
        """Diagnostic: ``(floor, out-of-order window size)`` for one pair.

        The window size is the live dedup memory for that peer; a soak
        that stays at (high floor, ~0 window) is the O(1)-memory proof.
        """
        dedup = self._dedup.get((receiver, src))
        if dedup is None:
            return (0, 0)
        return (dedup.floor, len(dedup.window))

    def counters(self) -> Dict[str, float]:
        """Snapshot of the runtime's counters (name -> value).

        Includes the resync/hello control-plane counters, which register
        on this transport's shared metrics registry.
        """
        return {
            name: value
            for name, value in self.metrics.snapshot().items()
            if name.startswith(("live_", "resync_", "hello_"))
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"UdpTransport(switches={len(self.switch_ids)}, "
            f"pending={len(self._pending)})"
        )
