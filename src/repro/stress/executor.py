"""Deterministic executor: one protocol stack under external scheduling.

The executor runs the *unmodified* protocol stack -- a real
:class:`~repro.core.protocol.DgmcNetwork` on the real simulation kernel --
but takes away its two sources of internal nondeterminism-hiding:

* **LSA deliveries** are intercepted by :class:`StressTransport`: a flood
  produces *pending deliveries* instead of scheduled kernel events, and
  the explorer chooses which pending LSA arrives next (or, with loss
  branching, is lost).  Arbitrary reordering across pending LSAs is
  physically realizable: flood arrival times are computed against the
  up-link topology at flood time, so later topology changes let one
  flood's copy overtake another's.
* **Time advances** only on an explicit ``("advance",)`` step, which
  completes the earliest in-flight topology computation
  (:meth:`~repro.sim.kernel.Simulator.advance_to_next`).  The zero-delay
  cascade after every step (process wake-ups, inbox drains) runs to
  completion via :meth:`~repro.sim.kernel.Simulator.run_instant`, so a
  state between steps is always settled-at-an-instant.

Because the kernel heap is ordered by ``(time, seq)`` -- ties break by
schedule order, and every wake, CPU grant and first step is its own entry
(the order contract in :mod:`repro.sim.kernel`) -- and every counter in
the stack is deterministic, replaying the same step sequence from a fresh
executor reproduces the same state bit for bit: the foundation for
stateless (replay-based) search and schedule minimization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.invariants import Violation, check_invariants
from repro.core.lsa import McLsa
from repro.core.protocol import DgmcNetwork, ProtocolConfig
from repro.core.state import McState
from repro.core.wire import encode_topology
from repro.lsr.flooding import DeliverFn, FloodPlan, Transport
from repro.lsr.lsa import NonMcLsa
from repro.sim.kernel import Simulator
from repro.stress.model import Step, StressScenario


class InfeasibleStep(RuntimeError):
    """A replayed step is not enabled in the current state.

    Raised during minimization when removing an earlier step breaks a
    causal dependency (e.g. a ``deliver`` referencing an LSA that was
    never flooded).  The minimizer treats an infeasible replay as
    non-violating, so causally required steps are never removed.
    """


@dataclass(frozen=True)
class PendingDelivery:
    """One LSA copy in flight: flooded but not yet delivered or lost."""

    seq: int
    src: int
    dest: int
    payload: Any
    #: The deployment's delivery hook, called as a class of one.
    hook: DeliverFn = field(compare=False, repr=False)


class StressTransport(Transport):
    """Transport that parks every copy of a flood, one per destination in
    id order, as an explorer-visible branch point."""

    def __init__(self) -> None:
        self._seq = itertools.count(1)
        #: seq -> pending delivery, insertion-ordered (dict preserves it).
        self.pending: Dict[int, PendingDelivery] = {}
        self.delivered = 0
        self.dropped = 0

    def send(self, src: int, payload: Any, plan: FloodPlan, hook: DeliverFn) -> None:
        for _, dest in plan.copies():
            seq = next(self._seq)
            self.pending[seq] = PendingDelivery(seq, src, dest, payload, hook)

    def deliver(self, seq: int) -> PendingDelivery:
        entry = self.pending.pop(seq, None)
        if entry is None:
            raise InfeasibleStep(f"no pending LSA with seq {seq}")
        self.delivered += 1
        entry.hook((entry.dest,), entry.payload)
        return entry

    def drop(self, seq: int) -> PendingDelivery:
        entry = self.pending.pop(seq, None)
        if entry is None:
            raise InfeasibleStep(f"no pending LSA with seq {seq}")
        self.dropped += 1
        return entry

    @property
    def idle(self) -> bool:
        return not self.pending


def _canon_payload(payload: Any) -> Tuple:
    """Semantic fingerprint of one flooded payload (send-order free)."""
    if isinstance(payload, McLsa):
        proposal = (
            encode_topology(payload.proposal)
            if payload.proposal is not None
            else None
        )
        role = payload.role.value if payload.role is not None else None
        return (
            "mc",
            payload.source,
            payload.event.value,
            payload.connection_id,
            tuple(sorted(payload.timestamp.items())),  # orderable, unlike a stamp
            role,
            proposal,
        )
    if isinstance(payload, NonMcLsa):
        d = payload.description
        return ("non-mc", payload.source, d.origin, d.seqnum, tuple(d.links))
    raise TypeError(f"unexpected flooded payload {payload!r}")


class StressExecutor:
    """One deterministic execution of a scenario under external scheduling.

    Construction converges the setup phase (sequential initial joins,
    each flushed to quiescence with FIFO delivery), leaving the explorer
    a settled starting state with zero pending work.  From there,
    :meth:`enabled_steps` / :meth:`apply` expose the transition system.
    """

    def __init__(
        self,
        scenario: StressScenario,
        config: Optional[ProtocolConfig] = None,
        loss_branching: bool = False,
        max_drops: int = 1,
    ) -> None:
        self.scenario = scenario
        self.loss_branching = loss_branching
        self.max_drops = max_drops
        self.transport = StressTransport()
        self.sim = Simulator()
        self.dgmc = DgmcNetwork(
            scenario.build_net(),
            config or scenario.make_config(),
            sim=self.sim,
            transport=self.transport,
        )
        self.dgmc.register_symmetric(scenario.connection_id)
        #: Scenario event indices already fired.
        self.fired: Set[int] = set()
        self.drops = 0
        # Setup: converge each initial join in isolation, FIFO delivery.
        from repro.core.events import JoinEvent

        for member in scenario.initial_members:
            self.dgmc.inject(
                JoinEvent(member, scenario.connection_id), at=self.sim.now
            )
            self.flush()

    # -- transition system ---------------------------------------------------

    def enabled_steps(self) -> List[Step]:
        """Every transition enabled now, in deterministic order."""
        steps: List[Step] = []
        for i, ev in enumerate(self.scenario.events):
            if i in self.fired:
                continue
            if any(j not in self.fired for j in ev.after):
                continue
            steps.append(("event", i))
        for seq in sorted(self.transport.pending):
            steps.append(("deliver", seq))
        if self.loss_branching and self.drops < self.max_drops:
            for seq in sorted(self.transport.pending):
                steps.append(("drop", seq))
        if self.sim.peek() is not None:
            steps.append(("advance",))
        return steps

    def apply(self, step: Step) -> None:
        """Apply one transition and settle the zero-delay cascade."""
        kind = step[0]
        if kind == "event":
            i = step[1]
            if i in self.fired or not (0 <= i < len(self.scenario.events)):
                raise InfeasibleStep(f"scenario event {i} not enabled")
            ev = self.scenario.events[i]
            if any(j not in self.fired for j in ev.after):
                raise InfeasibleStep(f"scenario event {i} blocked by 'after'")
            self.fired.add(i)
            self.dgmc.inject(
                ev.to_event(self.scenario.connection_id), at=self.sim.now
            )
            self.sim.run_instant()
        elif kind == "deliver":
            self.transport.deliver(step[1])
            self.sim.run_instant()
        elif kind == "drop":
            self.transport.drop(step[1])
            self.drops += 1
        elif kind == "advance":
            if self.sim.peek() is None:
                raise InfeasibleStep("nothing scheduled to advance to")
            self.sim.advance_to_next()
        else:
            raise InfeasibleStep(f"unknown step {step!r}")

    def replay(self, schedule: List[Step]) -> None:
        for step in schedule:
            self.apply(step)

    def flush(self) -> None:
        """Deterministic drain: FIFO-deliver everything, advance to done.

        Used for the setup phase and to complete a (possibly shortened)
        schedule during minimization: lowest-seq pending LSA first, then
        advance; repeat until fully quiescent.  Never drops.
        """
        self.sim.run_instant()
        while True:
            if self.transport.pending:
                self.transport.deliver(min(self.transport.pending))
                self.sim.run_instant()
                continue
            if self.sim.peek() is not None:
                self.sim.advance_to_next()
                continue
            break

    # -- state inspection ----------------------------------------------------

    @property
    def all_events_fired(self) -> bool:
        return len(self.fired) == len(self.scenario.events)

    def quiescent(self) -> bool:
        """Nothing pending anywhere: a settled (possibly terminal) state."""
        return self.transport.idle and self.dgmc.quiescent()

    def terminal(self) -> bool:
        return self.all_events_fired and self.quiescent()

    def states(self) -> Dict[int, McState]:
        return self.dgmc.states_for(self.scenario.connection_id)

    def canonical_key(self) -> Tuple:
        """Hashable fingerprint collapsing symmetric interleavings.

        Absolute simulated time and send sequence numbers are excluded:
        two interleavings that settle every switch, inbox, in-flight
        computation, and pending LSA into the same semantic content will
        behave identically from here on, whatever order produced them.
        """
        switches = []
        for x, sw in sorted(self.dgmc.switches.items()):
            per_conn = tuple(
                (
                    cid,
                    state.canonical(),
                    tuple(_canon_payload(p) for p in sw.queued_lsas(cid)),
                )
                for cid, state in sorted(sw.states.items())
            )
            inflight = tuple(
                (c.connection_id, c.members, c.acquired_at is not None)
                for c in sw.inflight_computes
            )
            lsdb = tuple(
                (origin, lsa.seqnum, tuple(lsa.links))
                for origin, lsa in sorted(
                    self.dgmc.routers[x].lsdb.entries().items()
                )
            )
            switches.append((x, per_conn, inflight, lsdb))
        pending = tuple(
            sorted(
                (p.dest, _canon_payload(p.payload), p.src)
                for p in self.transport.pending.values()
            )
        )
        links = tuple(
            (link.key, link.up)
            for link in sorted(
                self.dgmc.net.links(include_down=True), key=lambda lk: lk.key
            )
        )
        return (
            tuple(switches),
            pending,
            links,
            frozenset(self.fired),
            self.drops,
        )

    # -- invariants ----------------------------------------------------------

    def check_invariants(self, context: str = "") -> List[Violation]:
        """Every violated invariant at the current state.

        The contract is :func:`repro.core.invariants.check_invariants`;
        this harness only decides ``settled``: the convergence conditions
        are asserted in *terminal loss-free* states -- before the schedule
        completes (or after a deliberate drop) switches legitimately
        disagree.
        """
        return check_invariants(
            self.scenario.connection_id,
            self.states(),
            self.dgmc.net,
            self.dgmc.install_log,
            settled=self.terminal() and self.drops == 0,
            context=context,
        )
