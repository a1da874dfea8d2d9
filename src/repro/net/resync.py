"""Crash-recovery control plane: hello failure detection + neighbor resync.

The discrete backend injects link/nodal events from an oracle; a live
deployment has no oracle.  This module gives every
:class:`~repro.net.host.LiveSwitch` the two mechanisms a real link-state
router uses instead:

**Hello-based failure detection.**  Each host fires a HELLO keepalive at
every physical neighbor once per ``hello_interval``; a neighbor silent
for ``dead_interval`` is declared dead and the host runs its *local*
link-event machinery (``fire_link(up=False)``) -- exactly the Figure 2
reaction, but triggered by observation rather than injection.  The hello
carries the sender's **boot generation** so a restarted neighbor is
recognised even when it comes back between two liveness checks.

**Neighbor database exchange (resync).**  An OSPF-DBD-style handshake
rebuilds state after a crash or partition heal:

* a DBD frame summarises the sender's LSDB as ``{origin: seqnum}``
  headers; the receiver answers with full LSAs (LSU frames) for every
  origin it knows better, MC arbitration snapshots (SNAP frames) for
  every connection it holds, and -- when the *requester* knows origins
  better -- a single reply-flagged DBD so the transfer becomes
  bidirectional (a reply never triggers another DBD, so the handshake
  terminates);
* LSU payloads install through the normal
  :meth:`~repro.lsr.router.UnicastRouter.receive` path; news is
  re-flooded so switches deep behind the healed edge catch up, and an
  LSU carrying the *receiver's own* pre-crash LSA triggers OSPF's
  self-originated-sequence recovery (jump past it, re-originate);
* SNAP payloads merge through
  :meth:`~repro.core.switch.DgmcSwitch.apply_resync_snapshot`; a merge
  that changed anything is re-broadcast so the snapshot lattice joins
  propagate network-wide, and the existing triggered-proposal machinery
  (the resync kick) re-arbitrates the merged event set.  A cold-booted
  host *holds* every SNAP until its LSDB is complete: no proposal before
  the database exchange finishes (see :meth:`ResyncManager.on_snap`).

A restarted switch therefore reaches a complete LSDB and rejoins MC
arbitration through the protocol alone -- ``seed_converged_lsdb`` is a
boot-time convenience for clean starts, never called after recovery.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.lsr.lsa import NonMcLsa
from repro.net import frames
from repro.obs import tracer as obs_tracer
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import LiveSwitch
    from repro.net.transport import UdpTransport


class ResyncManager:
    """Per-host hello state machine and resync frame handlers.

    Pure logic plus counters; the host owns the asyncio hello task and
    calls :meth:`send_hellos` / :meth:`check_dead` on its cadence, and
    routes inbound control frames to :meth:`handle`.
    """

    def __init__(
        self,
        host: "LiveSwitch",
        transport: "UdpTransport",
        metrics: Optional[MetricsRegistry] = None,
        generation: int = 1,
        cold_boot: bool = False,
    ) -> None:
        self.host = host
        self.transport = transport
        #: This incarnation's boot generation (bumped by every restart).
        self.generation = generation
        #: Whether this host booted with an empty LSDB and must pull state
        #: from its neighbors (set on restart; clean boots are seeded).
        self.cold_boot = cold_boot
        #: Wall-clock time a hello was last heard from each neighbor.
        self.last_heard: Dict[int, float] = {}
        #: Last boot generation heard per neighbor.
        self.known_gen: Dict[int, int] = {}
        #: Neighbors currently declared dead -> whether *we* took the
        #: incident link down (False when it was already admin-down, so
        #: recovery must not resurrect a link an operator disabled).
        self.dead: Dict[int, bool] = {}
        #: Newest SNAP per (peer, connection) a cold-booted host is holding
        #: back until its LSDB is complete (see :meth:`on_snap`).
        self._held_snaps: Dict[Tuple[int, int], "frames.SnapFrame"] = {}
        reg = metrics if metrics is not None else MetricsRegistry()
        self._c_dbd_sent = reg.counter(
            "resync_dbd_sent_total", "database-description frames sent"
        )
        self._c_dbd_recv = reg.counter(
            "resync_dbd_received_total", "database-description frames received"
        )
        self._c_lsu_sent = reg.counter(
            "resync_lsu_sent_total", "full LSAs sent in response to a DBD"
        )
        self._c_lsu_applied = reg.counter(
            "resync_lsu_applied_total", "received resync LSAs that were news"
        )
        self._c_refloods = reg.counter(
            "resync_refloods_total", "resync LSAs re-flooded to all peers"
        )
        self._c_seq_recoveries = reg.counter(
            "resync_seqnum_recoveries_total",
            "self-originated-LSA sequence jumps after a restart",
        )
        self._c_snap_sent = reg.counter(
            "resync_snapshots_sent_total", "MC arbitration snapshots sent"
        )
        self._c_snap_applied = reg.counter(
            "resync_snapshots_applied_total", "received snapshots that changed state"
        )
        self._c_dead = reg.counter(
            "hello_neighbors_declared_dead_total",
            "neighbors declared dead after a silent dead_interval",
        )
        self._c_recovered = reg.counter(
            "hello_neighbors_recovered_total",
            "dead-declared neighbors heard from again",
        )

    # -- hello cadence (driven by the host's hello task) -----------------------

    def _neighbors(self) -> list:
        """Physical neighbors, *including* admin-down links.

        Hellos must keep flowing over a down link: death is declared per
        neighbor, not per link state, and a dead-declared neighbor is
        only rediscovered by hearing its hello again.
        """
        return self.host.net.neighbors(self.host.switch_id, include_down=True)

    def mark_boot(self, now: float) -> None:
        """Start every neighbor's liveness clock at hello-task start.

        A neighbor that *never* speaks must still be declared dead one
        dead interval after boot, so absence of a sample cannot read as
        silence of length zero.
        """
        for nbr in self._neighbors():
            self.last_heard.setdefault(nbr, now)

    def send_hellos(self) -> None:
        x = self.host.switch_id
        for nbr in self._neighbors():
            self.transport.send_hello(x, nbr, self.generation)

    def _dead_jitter(self, nbr: int) -> float:
        """Deterministic per-(switch, neighbor) dead-interval jitter.

        Unjittered, every watchdog observing the same failure crosses its
        dead interval on the same hello tick, so the resulting link-down
        declarations (and the flood bursts they provoke) synchronize
        fleet-wide.  Skewing each pair's threshold by up to half a hello
        interval de-synchronizes the firings while staying well inside
        the liveness budget.  A pure hash of the (switch, neighbor) pair
        -- no RNG -- so pinned-seed chaos schedules stay byte-for-byte
        reproducible and the delta-debugging minimizer keeps converging
        to the same counterexample.
        """
        mix = (self.host.switch_id * 2654435761 + nbr * 40503) % 997
        return (mix / 997.0) * 0.5 * self.host.hello_interval

    def check_dead(self, now: float) -> None:
        """Declare neighbors silent for longer than the dead interval.

        The threshold is ``dead_interval`` plus a deterministic
        per-neighbor jitter (see :meth:`_dead_jitter`).
        """
        x = self.host.switch_id
        for nbr in self._neighbors():
            if nbr in self.dead:
                continue
            heard = self.last_heard.get(nbr)
            if heard is None:
                self.last_heard[nbr] = now
                continue
            if now - heard <= self.host.dead_interval + self._dead_jitter(nbr):
                continue
            link_was_up = self.host.net.link(x, nbr).up
            self.dead[nbr] = link_was_up
            self._c_dead.inc()
            tracer = obs_tracer.TRACER
            if tracer.enabled:
                tracer.instant(
                    "neighbor_dead", cat="resync", tid=x,
                    neighbor=nbr, silent_for=round(now - heard, 4),
                )
            if link_was_up:
                # The Figure 2 reaction, from local observation: one
                # non-MC LSA plus MC link events for affected trees.
                self.host.fire_link(x, nbr, up=False)

    # -- inbound control frames -------------------------------------------------

    def handle(self, frame, now: float) -> None:
        if isinstance(frame, frames.HelloFrame):
            self.on_hello(frame, now)
        elif isinstance(frame, frames.DbdFrame):
            self.on_dbd(frame)
        elif isinstance(frame, frames.SnapFrame):
            if self.host.admit_snapshot(frame.src, frame.snapshot):
                self.on_snap(frame)
        elif isinstance(frame, frames.LsuFrame):
            self.on_lsu(frame)
        else:  # pragma: no cover - transport bug guard
            raise TypeError(f"unexpected control frame {frame!r}")

    def on_hello(self, frame: "frames.HelloFrame", now: float) -> None:
        peer = frame.src
        x = self.host.switch_id
        self.last_heard[peer] = now
        resync_needed = False
        if peer in self.dead:
            # Cuts drop hellos deterministically, so hearing one means
            # the path (or the peer) genuinely healed.
            we_downed_it = self.dead.pop(peer)
            self._c_recovered.inc()
            tracer = obs_tracer.TRACER
            if tracer.enabled:
                tracer.instant("neighbor_up", cat="resync", tid=x, neighbor=peer)
            if we_downed_it:
                self.host.fire_link(x, peer, up=True)
            resync_needed = True
        known = self.known_gen.get(peer)
        self.known_gen[peer] = frame.generation
        if known is None:
            # First contact.  On a clean (seeded) boot everyone already
            # agrees; only a cold-booted host must pull state.
            resync_needed = resync_needed or self.cold_boot
        elif frame.generation != known:
            # The peer restarted between two hellos: push our state (and
            # its own pre-crash LSA) at it.
            resync_needed = True
        if resync_needed:
            self.initiate(peer)

    def initiate(self, peer: int) -> None:
        """Open a database exchange with ``peer`` (send our DBD summary)."""
        x = self.host.switch_id
        tracer = obs_tracer.TRACER
        if tracer.enabled:
            tracer.instant("resync_start", cat="resync", tid=x, peer=peer)
        slo = getattr(self.host, "slo", None)
        if slo is not None:
            # DBD frames carry no trace context on the wire, so the
            # transport cannot attribute them; count them here.
            slo.resync_started(x, peer)
            slo.record_control("resync")
        self.transport.send_dbd(x, peer, self.host.router.lsdb.headers())
        self._c_dbd_sent.inc()

    def on_dbd(self, frame: "frames.DbdFrame") -> None:
        self._c_dbd_recv.inc()
        x = self.host.switch_id
        peer = frame.src
        theirs = frame.header_map()
        router = self.host.router
        slo = getattr(self.host, "slo", None)
        if frame.reply and slo is not None:
            # The terminating reply of a handshake we initiated.
            slo.resync_finished(x, peer)
        # OSPF self-originated recovery from the headers alone: after a
        # cold boot the network may still hold our pre-crash LSA at a
        # sequence number our fresh counter has not reached (``>=``: an
        # *equal* one is just as poisonous, as peers would treat our next
        # originations as stale or keep stale content under an equal
        # seqnum).  Jump past it and flood a fresh origination before
        # answering, so the answer below already carries it.
        my_seq = theirs.get(x)
        if my_seq is not None and (
            my_seq > router.seqnum
            or (self.cold_boot and my_seq >= router.seqnum)
        ):
            router.ensure_seqnum_above(my_seq)
            router.originate(flood=True)
            self._c_seq_recoveries.inc()
        lsdb = router.lsdb
        mine = lsdb.headers()
        # Every frame answered below is resync traffic: stamp a fresh
        # "resync" trace context so the transfer shows up as its own
        # causal tree (snapshots that already carry the context of the
        # membership event they encode keep it -- the original cause is
        # more informative than the resync that re-delivered it).
        mint = getattr(self.host, "mint_ctx", None)
        ctx = mint("resync") if mint is not None else None
        # Full LSAs for every origin we know and they lack or hold stale.
        for origin, lsa in sorted(lsdb.entries().items()):
            if theirs.get(origin, 0) < lsa.seqnum:
                self.transport.send_lsu(x, peer, NonMcLsa(origin, lsa, ctx=ctx))
                self._c_lsu_sent.inc()
        # Arbitration snapshots for every MC connection we hold.
        for snap in self.host.switch.capture_resync_snapshots():
            if snap.ctx is None and ctx is not None:
                snap = replace(snap, ctx=ctx)
            self.transport.send_snap(x, peer, snap)
            self._c_snap_sent.inc()
        # Reply (once) iff the peer knows origins better than we do, so
        # the exchange becomes bidirectional; a reply never triggers
        # another DBD, which terminates the handshake.
        if not frame.reply and any(
            seq > mine.get(origin, 0) for origin, seq in theirs.items()
        ):
            if slo is not None:
                slo.record_control("resync")
            self.transport.send_dbd(x, peer, mine, reply=True)
            self._c_dbd_sent.inc()

    def on_lsu(self, frame: "frames.LsuFrame") -> None:
        x = self.host.switch_id
        router = self.host.router
        lsa = frame.lsa.description
        if lsa.origin == x:
            # OSPF self-originated recovery: a pre-crash LSA of our own
            # with a competitive sequence number would make our fresh
            # originations look stale everywhere.  Jump past it and
            # re-originate (flooded) so peers converge on reality.
            if lsa.seqnum >= router.seqnum:
                router.ensure_seqnum_above(lsa.seqnum)
                router.originate(flood=True)
                self._c_seq_recoveries.inc()
            return
        if router.receive(frame.lsa):
            self._c_lsu_applied.inc()
            # Re-flood news: under origin-broadcast a resync LSU only
            # reached *us*, but switches deeper behind the healed edge
            # are just as stale.  Installs are idempotent, so the echo
            # storm is bounded (re-flood only on change).
            self.host.flood_out.flood(x, frame.lsa, kind="non-mc")
            self._c_refloods.inc()
            self.lsdb_grew()

    def lsdb_grew(self) -> None:
        """An LSA was news: release the held SNAPs once the LSDB is complete."""
        if self._held_snaps and self.host.router.lsdb.complete():
            held, self._held_snaps = self._held_snaps, {}
            for frame in held.values():
                self.on_snap(frame)

    def on_snap(self, frame: "frames.SnapFrame") -> None:
        snap = frame.snapshot
        if self.cold_boot and not self.host.router.lsdb.complete():
            # The merge below is what lets a restarted host propose (it
            # inherits R > C and kicks).  On a partial image that proposal
            # can miss reachable members and still win the equal-stamp
            # tie-break on proposer id, after which every switch agrees on
            # it forever (R == E == C, no further trigger).  Hold the SNAP;
            # lsdb_grew() re-delivers it when the exchange completes.
            self._held_snaps[frame.src, snap.connection_id] = frame
            return
        if not self.host.switch.apply_resync_snapshot(snap):
            return
        self._c_snap_applied.inc()
        # Gossip the *merged* state (a superset of what we just heard):
        # each hop of re-broadcast is a lattice join, so propagation
        # reaches every switch and terminates once nothing changes.
        merged = self.host.switch.capture_resync_snapshot(snap.connection_id)
        if merged is None:
            return
        x = self.host.switch_id
        for peer in self.host.flood_out.peers:
            if peer != x:
                self.transport.send_snap(x, peer, merged)
                self._c_snap_sent.inc()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResyncManager(sw={self.host.switch_id}, gen={self.generation}, "
            f"dead={sorted(self.dead)})"
        )
