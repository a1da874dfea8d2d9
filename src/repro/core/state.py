"""Per-(switch, connection) protocol state.

"Every switch in the network maintains three timestamps for each MC: the
received timestamp R, the expected stamp E, and the current topology
timestamp C. [...] There is one make_proposal_flag variable for each
connection m."  (Sections 3.2, 3.3)

The state also holds the local member list for the connection, the
currently installed topology (what "update routing entries" acts on), and
the connection's topology-algorithm instance (which, for incremental
algorithms, carries the previous tree).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.mc import ConnectionSpec, Role, default_role
from repro.core.timestamp import Stamp, VectorTimestamp
from repro.obs.context import TraceContext
from repro.trees.base import McTopology


class McState:
    """All D-GMC state one switch keeps for one connection.

    ``resume_from`` restores the (R, E, C, M) vectors saved when this
    connection's state was last destroyed at this switch (the *tombstone*;
    see :meth:`repro.core.switch.DgmcSwitch._maybe_destroy`).  Event counts
    are cumulative per origin and must never restart while other switches
    retain memory, or their staleness checks (``R[x] > T[x]``) would
    poison every post-recreation LSA.
    """

    def __init__(
        self,
        spec: ConnectionSpec,
        n: int,
        resume_from: Optional[Tuple[Stamp, Stamp, Stamp, Stamp]] = None,
    ) -> None:
        self.spec = spec
        self.n = n
        if resume_from is None:
            received, expected, current, member = (VectorTimestamp(),) * 4
        else:
            received, expected, current, member = resume_from
        #: R: events heard, per origin switch.
        self.received = received.snapshot()
        #: E: events known to exist (component-wise max of LSA stamps seen).
        self.expected = expected.snapshot()
        #: C: the stamp the installed topology is based on (never mutated;
        #: installs replace it).
        self.current_stamp: Stamp = current
        #: M: per origin, that origin's own event index (its R component)
        #: at its latest *membership* event reflected in ``members``.
        #: R counts every event an origin emits -- link events included --
        #: so R alone cannot order membership *views*: a link-event LSA
        #: overtaking a partition-swallowed join jumps R past the join
        #: forever.  M moves only on JOIN/LEAVE, so crash-recovery
        #: snapshots compare M to decide whose view of an origin is newer.
        self.member_stamp = member.snapshot()
        #: The shared make_proposal_flag of the two protocol entities.
        self.make_proposal_flag = False
        #: ReceiveLSA()'s mailbox -- every MC LSA delivered and not yet drained,
        #: oldest first -- and whether a ReceiveLSA() is scheduled or running
        #: (DgmcSwitch.deliver_mc_lsa).  Absent from :meth:`canonical`: the
        #: explorer fingerprints the queued LSAs themselves.
        self.inbox: List = []
        self.receiving = False
        #: Member list: switch -> role strings ({"sender"}, {"receiver"}, both).
        self.members: Dict[int, FrozenSet[str]] = {}
        #: The currently installed topology (None before the first accept).
        self.installed: Optional[McTopology] = None
        #: Proposer of the installed topology (tie-break among equal-stamp
        #: proposals; ``n`` is the "no proposer yet" sentinel, losing every
        #: tie).  See the tie-breaking note in repro.core.switch.
        self.current_proposer: int = n
        #: Simulated time of the most recent install (convergence metric).
        self.last_install_time: float = 0.0
        #: The connection's topology algorithm: stateless, one instance per type.
        self.algorithm = spec.make_algorithm()
        #: Diagnostics: number of proposals this switch computed / accepted.
        self.proposals_computed = 0
        self.proposals_accepted = 0
        self.proposals_withdrawn = 0
        #: Causal context of the latest cause affecting this connection
        #: (observability only; deliberately absent from :meth:`canonical`
        #: so the systematic explorer's dedup ignores it).
        self.trace_ctx = None
        #: Fast-reroute state (populated only under ProtocolConfig.enable_frr;
        #: see repro.frr and docs/fast-reroute.md).  All three fields are
        #: data-plane-only and deliberately absent from :meth:`canonical`
        #: and the wire-level tree encoding: control-plane agreement and
        #: byte-identity are untouched whether or not FRR ever fired.
        #:
        #: The per-edge backup fragments precomputed at install time.
        self.backup_plan = None
        #: Currently activated fragments, keyed by protected (canonical)
        #: edge.  Non-empty only between a local failure detection and the
        #: reconciling install that retires them.
        self.active_backup: Dict[Tuple[int, int], object] = {}
        #: Monotone epoch bumped on every activation/retirement -- the
        #: batched data plane's cheap change detector for this state.
        self.frr_epoch = 0
        #: Set when an install retires active fragments; the install hooks
        #: (simulator and live fabric) consume it to count frr_retired.
        self.frr_retired_pending = 0

    # -- membership ------------------------------------------------------------

    def apply_join(self, switch: int, role: Optional[Role]) -> None:
        """Add (or extend) a member.  Role defaults by connection type."""
        resolved = role if role is not None else default_role(self.spec.ctype)
        roles = self.members.get(switch, frozenset())
        self.members[switch] = roles | resolved.as_role_set()

    def apply_leave(self, switch: int) -> None:
        """Remove a member entirely (idempotent)."""
        self.members.pop(switch, None)

    @property
    def member_set(self) -> FrozenSet[int]:
        return frozenset(self.members)

    @property
    def empty(self) -> bool:
        """True when the member list is empty (MC destruction trigger)."""
        return not self.members

    # -- timestamp predicates (the guards of Figures 4 and 5) ----------------

    def no_outstanding_lsas(self) -> bool:
        """``R >= E``: every LSA known to exist has been received."""
        return self.received.geq(self.expected)

    def covers_new_events(self) -> bool:
        """``R > C``: events exist that the installed topology misses."""
        return self.received.gt(self.current_stamp)

    # -- canonicalization --------------------------------------------------------

    def canonical(self) -> tuple:
        """Hashable semantic fingerprint of this state.

        Used by the systematic explorer (:mod:`repro.stress`) to collapse
        symmetric interleavings: two interleavings that leave every switch
        with component-wise equal vectors, the same membership view, and a
        byte-identical installed topology are behaviorally equivalent and
        explored once.  The installed topology is canonicalized through
        the wire codec (members and edges sorted), so structurally equal
        topologies fingerprint equally regardless of construction order.
        """
        from repro.core.wire import encode_topology

        installed = (
            encode_topology(self.installed) if self.installed is not None else None
        )
        return (
            self.received.snapshot(),
            self.expected.snapshot(),
            self.current_stamp,
            self.current_proposer,
            self.member_stamp.snapshot(),
            self.make_proposal_flag,
            tuple(
                (switch, tuple(sorted(roles)))
                for switch, roles in sorted(self.members.items())
            ),
            installed,
        )

    # -- install -----------------------------------------------------------------

    def install(
        self,
        topology: McTopology,
        stamp: Stamp,
        now: float,
        proposer: int,
    ) -> None:
        """Adopt a topology: set C and update "routing entries".

        Installing reconciles fast reroute: any active backup fragments
        are retired (the re-proposed tree is the repair) and the stale
        plan is dropped -- the install path recomputes it against the new
        topology when FRR is enabled.
        """
        self.installed = topology
        self.current_stamp = stamp
        self.current_proposer = proposer
        self.last_install_time = now
        self.proposals_accepted += 1
        self.backup_plan = None
        if self.active_backup:
            self.frr_retired_pending += len(self.active_backup)
            self.active_backup = {}
            self.frr_epoch += 1

    # -- fast reroute -------------------------------------------------------------

    def activate_backup(self, fragment) -> bool:
        """Switch the data plane over to ``fragment`` (idempotent).

        Returns True when the fragment was newly activated.  Purely
        local: no LSA, no stamp movement, no canonical-state change.
        """
        if fragment.edge in self.active_backup:
            return False
        self.active_backup[fragment.edge] = fragment
        self.frr_epoch += 1
        return True

    def take_frr_retirements(self) -> int:
        """Consume the retired-by-install count (install hooks call this)."""
        count = self.frr_retired_pending
        self.frr_retired_pending = 0
        return count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"McState(G={self.spec.connection_id}, R={self.received}, "
            f"E={self.expected}, C={self.current_stamp}, "
            f"members={sorted(self.members)}, flag={self.make_proposal_flag})"
        )


@dataclass(frozen=True)
class McSnapshot:
    """One connection's arbitration state: what a SNAP frame carries.

    ``members`` maps switch id to its role set; ``topology`` is the
    installed topology as canonical wire bytes (``None`` before the first
    install).  Snapshots merge monotonically: membership is adopted
    per origin switch ``o`` only when the membership stamp
    ``member_stamp[o]`` (``o``'s own event index at its latest
    join/leave) exceeds the local M[o] -- membership of ``o`` changes
    only through events ``o`` itself originates, so M[o] totally orders
    views of it even when link events have pushed R[o] further.
    """

    connection_id: int
    received: Stamp
    expected: Stamp
    current: Stamp
    proposer: int
    member_stamp: Stamp
    members: Tuple[Tuple[int, FrozenSet[str]], ...]
    topology: Optional[bytes]
    #: Causal trace context (observability only; excluded from equality).
    ctx: Optional[TraceContext] = field(default=None, compare=False, repr=False)
    #: Active fast-reroute fragments as ``(u, v, path)`` tuples (protected
    #: edge in canonical order, detour node path from ``u`` to ``v``).
    #: Data-plane-only: carried so a healing peer that missed the local
    #: activation window can point its data plane off the dead edge
    #: before the repair cycle converges; never feeds arbitration.
    active_backup: Tuple[Tuple[int, int, Tuple[int, ...]], ...] = ()

    def member_map(self) -> Dict[int, FrozenSet[str]]:
        return dict(self.members)

    def stamps(self) -> Tuple[Stamp, Stamp, Stamp, Stamp]:
        """R, E, C, M in wire order."""
        return self.received, self.expected, self.current, self.member_stamp
