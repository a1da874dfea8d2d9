"""The D-GMC switch: the two protocol entities of Figures 4 and 5.

"Two MC protocol entities, EventHandler() and ReceiveLSA(), execute at
every network switch."

* ``EventHandler()`` is a simulation process, run once per local event per
  affected connection; it floods an event LSA and, when no outstanding LSAs
  are known (``R >= E``), computes and attaches a topology proposal.
* ``ReceiveLSA()`` is a method, run by one zero-delay wake per batch of LSAs
  in the connection's inbox; it updates R / E / member lists, accepts
  proposals whose timestamp dominates E, detects inconsistencies
  (``R[x] > T[x]``), and -- as a process, the one part that costs time --
  computes and floods *triggered* proposals, withdrawing them when new LSAs
  race in.

Topology computations cost Tc simulated time and contend for the switch's
single CPU (a :class:`~repro.sim.kernel.Facility`); LSA bookkeeping is
free, which matches the paper's cost model ("timestamp accesses are assumed
to be atomic").

Two documented deviations from the paper's pseudocode (see DESIGN.md):

1. Line 26 of Figure 5 reads ``candidate_proposal_stamp = C`` after a
   successful triggered flood, which would leave C frozen forever and
   defeat the ``R > C`` optimization; the intended value (consistent with
   line 8 of Figure 4, ``C = old_R``) is the saved ``old_R``, which is
   what this implementation uses.
2. **Withdrawal scope** (Figure 5 line 29): on withdrawal the paper nulls
   the whole candidate variable, which silently discards any *received*
   proposal picked as candidate earlier in the same inbox batch; since
   the LSA is already consumed, that proposal can never be reconsidered,
   and under sustained conflict a switch can permanently miss the winning
   proposal.  Here withdrawal discards only the switch's own uncommitted
   proposal.
3. **Equal-stamp tie-breaking.**  Two switches can concurrently compute
   proposals covering the *same* event set, hence carrying the *same*
   timestamp.  With a history-dependent topology algorithm (the Section
   3.5 incremental updates the paper advocates) those proposals can
   differ, and Figure 5's "accept if T >= E" would leave each switch with
   whichever arrived last -- which depends on flooding distances and thus
   differs across switches.  This implementation adds the natural
   deterministic rule: among proposals with equal timestamps, the one from
   the smallest switch id wins.  Every switch eventually sees the same
   proposal set per timestamp, so all pick the same winner and agreement
   is restored.  (With history-free algorithms equal-stamp proposals are
   bitwise identical and the rule is vacuous.)
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.lsa import McEvent, McLsa
from repro.core.mc import ConnectionSpec, Role, default_role
from repro.core.state import McSnapshot, McState
from repro.core.timestamp import Stamp, stamp_gt
from repro.frr import (
    BackupFragment,
    BackupPlan,
    activate_for_edge,
    compute_backup_plan,
)
from repro.lsr.router import UnicastRouter
from repro.obs import tracer as obs_tracer
from repro.sim.kernel import Facility, Hold, Process, Simulator
from repro.trees.base import McTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.protocol import ProtocolConfig
    from repro.lsr.flooding import FloodingFabric


class _InflightCompute:
    """Canonicalization record of one topology computation in flight.

    The systematic explorer (:mod:`repro.stress`) must distinguish states
    by what is *about to happen*, not only by the settled per-connection
    vectors: a computation holding the CPU carries a members snapshot taken
    at its start, and its completion (relative to pending LSA deliveries)
    is a branch point.  ``acquired_at`` is the simulated time the CPU was
    granted (``None`` while queued behind another computation); with a
    fixed Tc it totally orders completions.
    """

    __slots__ = ("connection_id", "members", "acquired_at")

    def __init__(self, connection_id: int, members: tuple) -> None:
        self.connection_id = connection_id
        self.members = members
        self.acquired_at: Optional[float] = None


class DgmcSwitch:
    """Per-switch D-GMC protocol engine."""

    def __init__(
        self,
        sim: Simulator,
        switch_id: int,
        n: int,
        router: UnicastRouter,
        fabric: "FloodingFabric",
        config: "ProtocolConfig",
        connection_registry: Dict[int, ConnectionSpec],
        on_computation: Optional[Callable[[int, int], None]] = None,
        on_install: Optional[Callable[[int, int, Stamp, int], None]] = None,
    ) -> None:
        self.sim = sim
        self.switch_id = switch_id
        self.n = n
        self.router = router
        self.fabric = fabric
        self.config = config
        self.connection_registry = connection_registry
        #: Hook (switch, connection) -> None fired per topology computation.
        self.on_computation = on_computation
        #: Hook (switch, connection, stamp, proposer) fired per install.
        self.on_install = on_install
        self.cpu = Facility(sim)
        self.states: Dict[int, McState] = {}
        #: (R, E, C, M) snapshots of destroyed connections, keyed by id, so
        #: a recreated connection resumes its event counts (see McState).
        self._tombstones: Dict[int, tuple] = {}
        #: Topology computations currently holding (or queued for) the CPU,
        #: in start order; see :class:`_InflightCompute`.
        self.inflight_computes: list[_InflightCompute] = []
        #: Diagnostics.
        self.computations = 0
        self.event_lsas_flooded = 0
        self.triggered_lsas_flooded = 0

    # -- state management ----------------------------------------------------

    def get_or_create_state(self, connection_id: int) -> McState:
        """Allocate per-MC data structures on first contact (Section 3.4)."""
        state = self.states.get(connection_id)
        if state is None:
            spec = self.connection_registry.get(connection_id)
            if spec is None:
                raise KeyError(
                    f"connection {connection_id} not in the connection registry"
                )
            state = McState(
                spec, self.n, resume_from=self._tombstones.get(connection_id)
            )
            self.states[connection_id] = state
        return state

    def _maybe_destroy(self, connection_id: int) -> None:
        """Delete local MC data structures when the member list is empty.

        "When a switch detects an empty member list of an MC, local data
        structures corresponding to the MC are deleted."  Deletion waits
        for an empty inbox so queued LSAs are never dropped: the inbox holds
        *every* undelivered LSA (a ReceiveLSA() wake carries none).
        """
        state = self.states.get(connection_id)
        if state is None or not state.empty or state.inbox:
            return
        self._tombstones[connection_id] = (
            state.received.snapshot(),
            state.expected.snapshot(),
            state.current_stamp,
            state.member_stamp.snapshot(),
        )
        del self.states[connection_id]

    def has_connection(self, connection_id: int) -> bool:
        return connection_id in self.states

    @property
    def mailboxes_empty(self) -> bool:
        """No MC LSA is queued for any connection (quiescence barriers)."""
        return not any(state.inbox for state in self.states.values())

    def queued_lsas(self, connection_id: int) -> list:
        """The MC LSAs queued for a connection, oldest first, unconsumed."""
        state = self.states.get(connection_id)
        return list(state.inbox) if state is not None else []

    # -- LSA delivery (called by the flooding fabric) ----------------------------

    def deliver_mc_lsa(self, lsa: McLsa) -> None:
        """Deposit a flooded MC LSA into the connection's inbox.

        Order-contract rule 3 (docs/simulation-kernel.md): ReceiveLSA() runs
        as one zero-delay wake, deferred and never inline, so LSAs delivered
        at one instant drain as one batch.  The wake carries no LSA -- the
        inbox holds them all, which :meth:`_maybe_destroy` relies on.
        """
        connection_id = lsa.connection_id
        state = self.get_or_create_state(connection_id)
        state.inbox.append(lsa)
        if not state.receiving:
            state.receiving = True
            self.sim.schedule(0.0, partial(self._receive_lsa, connection_id, state))

    # -- topology computation ----------------------------------------------------

    def _compute_proposal(self, state: McState):
        """Subroutine: one topology computation (costs Tc on the CPU).

        The inputs (member list, network image, previously installed
        topology) are snapshotted at computation start; the result reflects
        that snapshot even if LSAs modify the state during the Tc window.
        The image is an SPF-memoizing snapshot that installs replace (never
        mutate), so a computation in flight keeps its consistent old view
        while reusing any Dijkstra result already solved on it.
        """
        members = dict(state.members)
        image = self.router.network_image()
        previous = state.installed
        inflight = _InflightCompute(
            state.spec.connection_id, tuple(sorted(members))
        )
        self.inflight_computes.append(inflight)
        try:
            yield self.cpu.request()
            inflight.acquired_at = self.sim.now
            try:
                yield Hold(self.config.resolve_compute_time(state))
            finally:
                self.cpu.release()
        finally:
            self.inflight_computes.remove(inflight)
        self.computations += 1
        state.proposals_computed += 1
        if self.on_computation is not None:
            self.on_computation(self.switch_id, state.spec.connection_id)
        if not members:
            return McTopology.empty()
        tracer = obs_tracer.TRACER
        if not tracer.enabled:
            return state.algorithm.compute(image, members, previous)
        args = {"connection": state.spec.connection_id, "members": len(members)}
        if state.trace_ctx is not None:
            args["trace_id"] = state.trace_ctx.trace_id()
        with tracer.span(
            "compute",
            cat="arbitration",
            tid=self.switch_id,
            sim_time=self.sim.now,
            **args,
        ):
            return state.algorithm.compute(image, members, previous)

    # -- EventHandler() : Figure 4 ---------------------------------------------

    def event_handler(
        self,
        event: McEvent,
        connection_id: int,
        role: Optional[Role] = None,
        ctx=None,
    ):
        """Generator body of EventHandler() for one event and connection.

        The caller (the protocol layer) spawns this as a process.  For
        membership events the local member list is updated before the
        timestamps are advanced, so a proposal computed here reflects the
        new membership.  ``ctx`` is the causal trace context of the event
        (minted by the live runtime; the discrete backend passes none);
        it is adopted into the connection state and stamped onto every
        LSA this handler floods.
        """
        x = self.switch_id
        state = self.get_or_create_state(connection_id)
        if ctx is not None:
            state.trace_ctx = ctx
        if event is McEvent.JOIN:
            if role is None:
                role = default_role(state.spec.ctype)
            state.apply_join(x, role)
        elif event is McEvent.LEAVE:
            state.apply_leave(x)
        # Line 1: R[x] += 1; E[x] += 1.
        state.received.increment(x)
        state.expected.increment(x)
        if event in (McEvent.JOIN, McEvent.LEAVE):
            # M orders membership views of x (link events move R only).
            state.member_stamp[x] = state.received[x]

        if state.no_outstanding_lsas() or self.config.ablate_re_gate:  # line 2
            old_r = state.received.snapshot()  # line 4
            proposal = yield from self._compute_proposal(state)  # line 5
            if state.received.equals(old_r):  # line 6: proposal still valid
                self._flood(
                    McLsa(x, event, connection_id, proposal, old_r, role,
                          ctx=state.trace_ctx)
                )  # line 7
                state.make_proposal_flag = False  # line 9
                self._install(state, proposal, old_r, proposer=x)  # lines 8, 10
            else:  # lines 11-13: flood event only, defer to ReceiveLSA()
                self._flood(McLsa(x, event, connection_id, None, old_r, role,
                                  ctx=state.trace_ctx))
                state.make_proposal_flag = True
        else:  # lines 15-17: outstanding LSAs known; defer to ReceiveLSA()
            self._flood(
                McLsa(x, event, connection_id, None, state.received.snapshot(),
                      role, ctx=state.trace_ctx)
            )
            state.make_proposal_flag = True
        self._maybe_destroy(connection_id)

    # -- the detector's rule : Figure 2 -------------------------------------------
    #
    # "Only the switch that detects the event" reacts.  Every execution
    # backend -- DgmcNetwork (and through it the systematic explorer) and
    # the live LiveSwitch -- calls the methods below; the drivers own only
    # scheduling, transport, and their counters.

    def spawn_event_handler(
        self,
        event: McEvent,
        connection_id: int,
        role: Optional[Role] = None,
        ctx=None,
    ) -> None:
        """Start EventHandler() for one local event on one connection."""
        self.sim.spawn(self.event_handler(event, connection_id, role=role, ctx=ctx))

    def affected_connections(self, u: int, v: int, up: bool) -> List[int]:
        """Connections whose topology a change of link ``(u, v)`` affects.

        A failure affects every connection whose installed topology (at
        this switch) uses the link.  A recovery affects every connection
        whose installed topology is *degraded* -- it no longer spans the
        member set because it was computed while part of the membership
        was unreachable, and restored connectivity is the only signal that
        the missing members may be reachable again -- or all active
        connections when ``reoptimize_on_link_up`` is set.

        A recovery also affects every connection with a topology
        computation *in flight* here: its inputs were snapshotted before
        the recovery, so the tree it is about to install may be degraded
        even though the currently installed one is fine.  Without this, a
        link that fails and recovers within one Tc window installs a
        disconnected-image tree with no further trigger, and the
        connection never spans its members again (found by exhaustive
        exploration; see docs/systematic-testing.md).
        """
        if up:
            if self.config.reoptimize_on_link_up:
                return sorted(self.states)
            if self.config.ablate_degraded_repair:
                return []  # pre-deviation behavior: recovery is a non-event
            inflight = {c.connection_id for c in self.inflight_computes}
            return sorted(
                connection_id
                for connection_id, state in self.states.items()
                if connection_id in inflight
                or (
                    state.installed is not None
                    and not state.installed.spans(state.member_set)
                )
            )
        edge = (u, v) if u <= v else (v, u)
        return sorted(
            connection_id
            for connection_id, state in self.states.items()
            if state.installed is not None and edge in state.installed.all_edges()
        )

    def activate_frr(self, u: int, v: int) -> List[int]:
        """Switch the local data plane onto the backup fragments covering
        failed edge ``(u, v)``; returns the connections switched over.

        Runs at *both* endpoints of the edge, before any LSA floods: only
        this switch's own states are touched, no stamps move, and the
        eventual re-proposed install retires the fragments (see
        docs/fast-reroute.md).  No-op unless ``enable_frr`` is set.
        """
        if not self.config.enable_frr:
            return []
        return activate_for_edge(self.states, u, v)

    def detect_link_change(
        self, u: int, v: int, up: bool, ctx=None
    ) -> Tuple[List[int], List[int]]:
        """This switch detects a change of its incident link ``(u, v)``.

        In order: fast reroute (a failure must ride the precomputed detour
        before any LSA leaves the switch), then the unicast layer's one
        non-MC LSA, which also updates the local image, then one
        EventHandler() per affected connection.  Returns ``(affected,
        frr_activated)`` connection ids.
        """
        activated = [] if up else self.activate_frr(u, v)
        self.router.notify_incident_link_event()
        affected = self.affected_connections(u, v, up)
        for connection_id in affected:
            self.spawn_event_handler(McEvent.LINK, connection_id, ctx=ctx)
        return affected, activated

    def _flood(self, lsa: McLsa) -> None:
        if lsa.is_event_lsa:
            self.event_lsas_flooded += 1
        else:
            self.triggered_lsas_flooded += 1
        self.fabric.flood(self.switch_id, lsa, kind="mc")

    # -- ReceiveLSA() : Figure 5 -------------------------------------------------

    def _receive_lsa(self, connection_id: int, state: McState) -> None:
        """One invocation of the ReceiveLSA() algorithm (Figure 5).

        Only a due triggered proposal (lines 19-31) costs simulated time,
        so only it becomes a process, started inline in this dispatch.
        """
        tracer = obs_tracer.TRACER
        if not tracer.enabled:
            best = self._drain_inbox(state)
        else:
            with tracer.span(
                "receive_lsa",
                cat="arbitration",
                tid=self.switch_id,
                sim_time=self.sim.now,
                connection=connection_id,
            ) as span:
                best = self._drain_inbox(state)
                span.args["adopted_proposal"] = best[0] is not None
                if state.trace_ctx is not None:
                    span.args["trace_id"] = state.trace_ctx.trace_id()
        if self._proposal_due(state):  # line 19
            Process(self.sim, self._triggered_tail(connection_id, state, best)).resume()
        else:
            self._accept(connection_id, state, best)

    def _drain_inbox(self, state: McState) -> Tuple[Optional[McTopology], Stamp, int]:
        """Figure 5 lines 1-18: consume every queued LSA, pick the candidate.

        The candidate ``(topology, stamp, proposer)`` starts as "the
        installed topology": a proposal must beat what is installed.
        """
        x = self.switch_id
        batch, state.inbox = state.inbox, []
        candidate: Optional[McTopology] = None
        candidate_stamp = state.current_stamp
        candidate_proposer = state.current_proposer
        for lsa in batch:
            if lsa.ctx is not None:
                # Adopt the newest cause affecting this connection so the
                # spans and floods below join its causal chain.
                state.trace_ctx = lsa.ctx
            if lsa.is_event_lsa:  # lines 5-9
                # The LSA's own stamp component is the authoritative event
                # index of its origin: apply iff it is news, and *set* R
                # rather than increment.  Under in-order delivery this is
                # exactly the paper's ``R[S] += 1`` (the index is R+1); it
                # additionally makes duplicated, reordered, or
                # resync-overtaken event LSAs harmless no-ops and lets R
                # heal past gaps left by frames a partition swallowed.
                idx = lsa.timestamp[lsa.source]
                was_news = idx > state.received[lsa.source]
                if was_news:
                    state.received[lsa.source] = idx
                if lsa.event in (McEvent.JOIN, McEvent.LEAVE):
                    # Membership moves on its own M order, so a join
                    # arriving *after* a link event already jumped R is
                    # still applied.  V = link: membership unchanged; the
                    # topology change is learned via the unicast layer's
                    # non-MC LSA.  ``ablate_member_stamp`` restores the
                    # pre-deviation gate (membership applies only when the
                    # LSA also advanced R) so the systematic explorer can
                    # re-derive the counterexample that forced the M
                    # vector (see docs/systematic-testing.md).
                    if self.config.ablate_member_stamp:
                        applies = was_news
                    else:
                        applies = idx > state.member_stamp[lsa.source]
                    if applies:
                        if idx > state.member_stamp[lsa.source]:
                            state.member_stamp[lsa.source] = idx
                        if lsa.event is McEvent.JOIN:
                            state.apply_join(lsa.source, lsa.role)
                        else:
                            state.apply_leave(lsa.source)
            state.expected.merge(lsa.timestamp)  # line 10
            # Line 11, ``T >= E``.  The merge just made ``E >= T``, and
            # dominance between stamps of equal sum is equality (see
            # repro.core.timestamp), so the test is one integer compare.
            if (
                lsa.proposal is not None
                and lsa.timestamp.total() == state.expected.total()
            ):  # lines 11-14
                state.make_proposal_flag = False
                if self._beats(
                    lsa.timestamp, lsa.source, candidate_stamp, candidate_proposer
                ):
                    candidate = lsa.proposal
                    candidate_stamp = lsa.timestamp
                    candidate_proposer = lsa.source
            elif state.received[x] > lsa.timestamp[x]:  # lines 15-16
                state.make_proposal_flag = True
        return candidate, candidate_stamp, candidate_proposer

    def _triggered_tail(self, connection_id: int, state: McState, best):
        """Lines 19-31: the triggered proposal, a candidate like any other."""
        own = yield from self._triggered_proposal(connection_id, state)
        if own is not None and self._beats(own[1], self.switch_id, best[1], best[2]):
            best = (*own, self.switch_id)  # lines 25-26 (paper misprints C)
        self._accept(connection_id, state, best)

    def _accept(self, connection_id: int, state: McState, best) -> None:
        """Lines 32-35: accept the surviving candidate; ReceiveLSA() ends.

        LSAs that arrived during a triggered computation get the next wake.
        """
        candidate, stamp, proposer = best
        if candidate is not None:
            self._install(state, candidate, stamp, proposer)
        self._maybe_destroy(connection_id)
        if state.inbox:
            self.sim.schedule(0.0, partial(self._receive_lsa, connection_id, state))
        else:
            state.receiving = False

    def _proposal_due(self, state: McState) -> bool:
        """Figure 5 line 19: the flag is set, ``R >= E`` and ``R > C``."""
        return (
            state.make_proposal_flag
            and (state.no_outstanding_lsas() or self.config.ablate_re_gate)
            and (state.covers_new_events() or self.config.ablate_rc_gate)
        )

    def _triggered_proposal(self, connection_id: int, state: McState):
        """Figure 5 lines 20-31 up to the candidate step.

        Snapshot R; compute; then flood the proposal, or withdraw it when
        LSAs raced in during Tc (or the connection was destroyed under
        it).  Returns ``(proposal, old_R)`` when flooded, else ``None``.
        ReceiveLSA() and the resync kick both run this once
        :meth:`_proposal_due`; each keeps its own candidate / install step.
        """
        old_r = state.received.snapshot()  # line 20
        proposal = yield from self._compute_proposal(state)  # line 21
        quiet = (
            self.states.get(connection_id) is state
            and not state.inbox
            and state.received.equals(old_r)
        )
        if quiet or self.config.ablate_withdrawal:  # line 22
            self._flood(
                McLsa(self.switch_id, McEvent.NONE, connection_id, proposal, old_r,
                      ctx=state.trace_ctx)
            )  # line 23
            # Line 24: E = R.  (merge, not assign: with the withdrawal
            # ablation E may already exceed old_r and must stay monotone.)
            state.expected.merge(old_r)
            state.make_proposal_flag = False  # line 27
            return proposal, old_r
        # Lines 28-30: withdraw -- the own, never-adopted proposal only.  A
        # *received* candidate the caller picked earlier in the batch
        # survives (deviation 2 in the module docstring and DESIGN.md).
        state.proposals_withdrawn += 1
        tracer = obs_tracer.TRACER
        if tracer.enabled:
            tracer.instant(
                "withdraw",
                cat="arbitration",
                tid=self.switch_id,
                sim_time=self.sim.now,
                connection=connection_id,
            )
        return None

    def _install(self, state: McState, topology, stamp, proposer: int) -> None:
        tracer = obs_tracer.TRACER
        if not tracer.enabled:
            return self._install_body(state, topology, stamp, proposer)
        args = {
            "connection": state.spec.connection_id,
            "stamp_total": stamp.total(),
            "proposer": proposer,
        }
        if state.trace_ctx is not None:
            args["trace_id"] = state.trace_ctx.trace_id()
        with tracer.span(
            "install",
            cat="arbitration",
            tid=self.switch_id,
            sim_time=self.sim.now,
            **args,
        ):
            return self._install_body(state, topology, stamp, proposer)

    def _install_body(self, state: McState, topology, stamp, proposer: int) -> None:
        state.install(topology, stamp, self.sim.now, proposer=proposer)
        if self.config.enable_frr:
            # Reconcile fast reroute: the install itself retired any active
            # fragments (the re-proposed tree IS the repair); precompute
            # fresh ones so the next failure switches over in O(1).  Only
            # an endpoint of an edge can activate its fragment, so a switch
            # plans its incident tree edges alone -- both endpoints derive
            # the same fragment from identical topologies and images --
            # and one the tree does not touch never rebuilds its image.
            me = self.switch_id
            if any(me in edge for edge in topology.all_edges()):
                state.backup_plan = compute_backup_plan(
                    topology, self.router.network_image(), me
                )
            else:
                state.backup_plan = BackupPlan()
        if self.on_install is not None:
            self.on_install(
                self.switch_id, state.spec.connection_id, stamp, proposer
            )

    @staticmethod
    def _beats(
        stamp, proposer: int, incumbent_stamp, incumbent_proposer: int
    ) -> bool:
        """Proposal precedence: later event set wins; ties go to lower id.

        ``stamp`` is guaranteed comparable to ``incumbent_stamp`` here
        (both dominate the E values at their acceptance points, and E only
        grows), so the order is total.
        """
        if stamp_gt(stamp, incumbent_stamp):
            return True
        return proposer < incumbent_proposer and stamp == incumbent_stamp

    # -- crash-recovery resync (used by repro.net.resync) ----------------------

    def capture_resync_snapshot(self, connection_id: int):
        """A :class:`~repro.core.state.McSnapshot` of one connection.

        None when this switch holds no state for the connection.  The
        snapshot is the complete arbitration picture (R, E, C, proposer,
        member list, installed topology bytes) a restarted or healed
        neighbor needs to rejoin the vector-timestamp protocol.
        """
        state = self.states.get(connection_id)
        if state is None:
            return None
        from repro.core.wire import encode_topology

        topology = (
            encode_topology(state.installed)
            if state.installed is not None
            else None
        )
        return McSnapshot(
            connection_id=connection_id,
            received=state.received.snapshot(),
            expected=state.expected.snapshot(),
            current=state.current_stamp,
            proposer=state.current_proposer,
            member_stamp=state.member_stamp.snapshot(),
            members=tuple(sorted(state.members.items())),
            topology=topology,
            ctx=state.trace_ctx,
            active_backup=tuple(
                (edge[0], edge[1], fragment.path)
                for edge, fragment in sorted(state.active_backup.items())
            ),
        )

    def capture_resync_snapshots(self) -> list:
        """Snapshots of every connection this switch currently holds."""
        return [self.capture_resync_snapshot(c) for c in sorted(self.states)]

    def apply_resync_snapshot(self, snap) -> bool:
        """Merge a peer's arbitration snapshot; True when anything changed.

        The merge is a monotone lattice join, so snapshot gossip
        (re-broadcast on change, see :mod:`repro.net.resync`) terminates:

        * R takes the component-wise max (events the peer heard exist);
        * membership merges per origin -- the snapshot's view of switch
          ``o`` is adopted iff the snapshot's membership stamp ``M[o]``
          is strictly newer than ours (``M[o]`` is ``o``'s own event
          index at its latest join/leave, so it totally orders membership
          views of ``o`` even when link events have pushed R past a
          membership LSA the partition swallowed);
        * E takes the component-wise max of both vectors (and of the
          snapshot's R: events it heard certainly exist);
        * the snapshot topology installs iff its (stamp, proposer) beats
          the local one under the usual precedence -- incomparable stamps
          (both sides installed during a partition) beat neither way, and
          the triggered re-proposal below supersedes both.

        When the merge leaves ``R > C`` with no LSA in flight to wake
        ReceiveLSA(), a :meth:`_resync_kick` process is spawned to
        arbitrate the merged event set.
        """
        state = self.get_or_create_state(snap.connection_id)
        changed = False
        if snap.ctx is not None:
            state.trace_ctx = snap.ctx
        member_view = snap.member_map()
        if state.received.merge(snap.received):
            changed = True
        for origin, their_m in snap.member_stamp.items():
            if their_m > state.member_stamp[origin]:
                state.member_stamp[origin] = their_m
                if origin in member_view:
                    state.members[origin] = member_view[origin]
                else:
                    state.members.pop(origin, None)
                changed = True
        if state.expected.merge(snap.received):
            changed = True
        if state.expected.merge(snap.expected):
            changed = True
        if snap.topology is not None and self._beats(
            snap.current, snap.proposer, state.current_stamp, state.current_proposer
        ):
            from repro.core.wire import decode_topology

            self._install(
                state, decode_topology(snap.topology), snap.current, snap.proposer
            )
            changed = True
        if self._adopt_backup_fragments(state, snap):
            changed = True
        if changed and state.covers_new_events():
            state.make_proposal_flag = True
            self.sim.spawn(self._resync_kick(snap.connection_id, state))
        return changed

    def _adopt_backup_fragments(self, state: McState, snap) -> bool:
        """Adopt the peer's active fast-reroute fragments (resync merge).

        FRR activation is local to the endpoints that detect a failure;
        an endpoint healing from a partition may hold the same installed
        topology but have missed its own activation window, leaving its
        data plane pointed at the dead edge until the repair cycle
        converges.  Resync therefore carries the active-backup set:
        fragments are adopted only when both sides agree on the installed
        topology (the snapshot's (stamp, proposer) matches ours after the
        merge above -- which also holds immediately after the snapshot's
        own topology installed), only for edges still on the installed
        tree, and only at an endpoint of the edge -- no other switch can
        ever hold a packet at it, so a bystander merging the same
        snapshot keeps no state for it.  The adopted cost is re-priced
        against the local image; like all FRR state this never touches
        canonical state, so the gossip lattice stays monotone (activation
        is idempotent and installs retire fragments atomically).
        """
        backups = [b for b in snap.active_backup if self.switch_id in b[:2]]
        if (
            not backups
            or not self.config.enable_frr
            or state.installed is None
            or snap.current != state.current_stamp
            or snap.proposer != state.current_proposer
        ):
            return False
        image = self.router.network_image()
        tree_edges = state.installed.all_edges()
        changed = False
        for u, v, path in backups:
            edge = (u, v) if u <= v else (v, u)
            if edge not in tree_edges or edge in state.active_backup:
                continue
            cost = 0.0
            for a, b in zip(path, path[1:]):
                cost += image.get(a, {}).get(b, 0.0)
            if state.activate_backup(
                BackupFragment(edge=edge, path=tuple(path), cost=cost)
            ):
                changed = True
        return changed

    def _resync_kick(self, connection_id: int, state: McState):
        """Triggered proposal after a resync merge (Figure 5 lines 19-31).

        A snapshot merge can leave ``R > C`` with no LSA in any inbox,
        so ReceiveLSA() would never run its triggered-computation tail;
        this process runs that same tail (:meth:`_triggered_proposal`)
        and installs the result.  Concurrent kicks at several switches
        converge through the equal-stamp lower-proposer rule, like any
        other triggered-proposal race.
        """
        if self.states.get(connection_id) is not state or not self._proposal_due(state):
            return
        own = yield from self._triggered_proposal(connection_id, state)
        if own is None:
            return
        proposal, old_r = own
        if self._beats(
            old_r, self.switch_id, state.current_stamp, state.current_proposer
        ):
            self._install(state, proposal, old_r, proposer=self.switch_id)  # 25-26
        self._maybe_destroy(connection_id)

    # -- forwarding view -------------------------------------------------------------

    def forwarding_links(self, connection_id: int) -> list[tuple[int, int]]:
        """Edges of the installed topology incident to this switch.

        These are the "routing entries for incident links in m" that the
        protocol updates on install.
        """
        state = self.states.get(connection_id)
        if state is None or state.installed is None:
            return []
        return sorted(
            e for e in state.installed.all_edges() if self.switch_id in e
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DgmcSwitch(id={self.switch_id}, connections={sorted(self.states)})"
