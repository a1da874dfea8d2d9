"""Per-(switch, connection) protocol state.

"Every switch in the network maintains three timestamps for each MC: the
received timestamp R, the expected stamp E, and the current topology
timestamp C. [...] There is one make_proposal_flag variable for each
connection m."  (Sections 3.2, 3.3)

The state also holds the local member list for the connection, the
currently installed topology (what "update routing entries" acts on), and
the connection's topology-algorithm instance (which, for incremental
algorithms, carries the previous tree).

Everything ReceiveLSA() reads -- R, E, C, M, the proposer of the installed
topology, the flag and the member list -- is one immutable, interned
:class:`Arbitration` record.  Nearly every receiver of a flood holds the
same record, so :class:`repro.core.switch.DgmcSwitch` computes a batch's
transition once per distinct record and rebinds the rest
(docs/protocol-walkthrough.md, "One record, one drain per distinct input").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import (
    Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.mc import ConnectionSpec, Role, default_role
from repro.core.timestamp import Stamp, VectorTimestamp, frozen, remember
from repro.obs.context import TraceContext
from repro.trees.base import McTopology


class MemberMap(dict):
    """A member list -- switch -> role strings ({"sender"}, {"receiver"},
    both) -- that is never written in place.

    Records share their member maps, so every write raises; :meth:`joined`,
    :meth:`with_roles` and :meth:`left` return the map after a change.
    A map hashes by ``key``, the XOR of ``hash((switch, roles))`` over the
    entries, which a change updates in O(1) (the way
    :class:`repro.lsr.spfcache.LsaSet` keys LSA sets); records, which are
    interned, make switches in one state share one map.
    """

    __slots__ = ("key", "_switches")

    def _shared(self, *args, **kwargs):
        raise TypeError("a member map is shared: rebind the state's members")

    __setitem__ = __delitem__ = __ior__ = _shared
    pop = popitem = clear = update = setdefault = _shared

    def __hash__(self) -> int:
        return self.key

    def __reduce__(self):
        return member_map, (dict(self),)

    @property
    def switches(self) -> FrozenSet[int]:
        """The member switches (built once: the map never changes)."""
        if self._switches is None:
            self._switches = frozenset(self)
        return self._switches

    def joined(self, switch: int, roles: FrozenSet[str]) -> "MemberMap":
        """The map with ``roles`` added to ``switch``'s role set."""
        return self.with_roles(switch, self.get(switch, frozenset()) | roles)

    def with_roles(self, switch: int, roles: FrozenSet[str]) -> "MemberMap":
        """The map with ``switch``'s role set replaced by ``roles``."""
        had = self.get(switch)
        if had == roles:
            return self
        key = self.key ^ hash((switch, roles))
        if had is not None:
            key ^= hash((switch, had))
        out = MemberMap(self)
        dict.__setitem__(out, switch, roles)
        return _keyed(out, key)

    def left(self, switch: int) -> "MemberMap":
        """The map without ``switch``."""
        had = self.get(switch)
        if had is None:
            return self
        out = MemberMap(self)
        dict.__delitem__(out, switch)
        return _keyed(out, self.key ^ hash((switch, had)))


def _keyed(members: MemberMap, key: int) -> MemberMap:
    members.key = key
    members._switches = None
    return members


def member_map(entries: Mapping[int, FrozenSet[str]]) -> MemberMap:
    """The :class:`MemberMap` holding ``entries``."""
    if isinstance(entries, MemberMap):
        return entries
    key = 0
    for item in entries.items():
        key ^= hash(item)
    return _keyed(MemberMap(entries), key)


_NO_MEMBERS = member_map({})
#: R, E, C and M of a connection this switch has never seen (already
#: frozen, so a fresh state's record is found by identity).
_FRESH = (frozen(VectorTimestamp()),) * 4


class Arbitration(NamedTuple):
    """Figure 5's inputs at one switch for one connection, as one value.

    Immutable and interned by content (:func:`arbitration`): the stamps
    are :class:`~repro.core.timestamp.FrozenStamp` s and the member list a
    :class:`MemberMap`, so a switch changes its state only by rebinding
    its record.  The field names are :class:`McState`'s, which reads them
    through.
    """

    #: R: events heard, per origin switch.
    received: Stamp
    #: E: events known to exist (component-wise max of LSA stamps seen).
    expected: Stamp
    #: C: the stamp the installed topology is based on.
    current_stamp: Stamp
    #: M: per origin, that origin's own event index (its R component) at
    #: its latest *membership* event reflected in ``members``.  R counts
    #: every event an origin emits -- link events included -- so R alone
    #: cannot order membership *views*: a link-event LSA overtaking a
    #: partition-swallowed join jumps R past the join forever.  M moves
    #: only on JOIN/LEAVE, so crash-recovery snapshots compare M to decide
    #: whose view of an origin is newer.
    member_stamp: Stamp
    #: Proposer of the installed topology (tie-break among equal-stamp
    #: proposals; ``n`` is the "no proposer yet" sentinel, losing every
    #: tie).  See the tie-breaking note in repro.core.switch.
    current_proposer: int
    #: The shared make_proposal_flag of the two protocol entities.
    make_proposal_flag: bool
    #: The member list.
    members: MemberMap

    # -- the guards of Figures 4 and 5 ---------------------------------------

    def no_outstanding_lsas(self) -> bool:
        """``R >= E``: every LSA known to exist has been received."""
        return self.received.geq(self.expected)

    def covers_new_events(self) -> bool:
        """``R > C``: events exist that the installed topology misses."""
        return self.received.gt(self.current_stamp)


#: hash -> the interned record with that hash: equal states are one object,
#: which is what lets a wake run group switches into classes and
#: ReceiveMemo key a switch's state, both by ``id(record)``.  It answers
#: 56% of its 11.4 lookups per event at n=400 (51% of 9.9 on
#: ``churn_dense_n64``); without it no two switches share a record, and
#: ``churn_sparse_n400`` read ``op_ms_p50`` 3.1 -> 18-27 ms.
_RECORDS: Dict[int, Arbitration] = {}
_UNHELD = (None,) * 4


def arbitration(
    received: Stamp,
    expected: Stamp,
    current_stamp: Stamp,
    member_stamp: Stamp,
    current_proposer: int,
    make_proposal_flag: bool,
    members: MemberMap,
    like: Optional[Arbitration] = None,
) -> Arbitration:
    """The interned record with these fields (stamps are frozen on the way).

    A stamp holding the value that record ``like`` holds in its field is
    that field's own :class:`~repro.core.timestamp.FrozenStamp`, so a drain
    that leaves R, E, C or M unmoved rebuilds no wrapper and the lookup
    below compares those fields by identity.
    """
    held = like or _UNHELD
    record = tuple.__new__(Arbitration, (
        frozen(received, held[0]), frozen(expected, held[1]),
        frozen(current_stamp, held[2]), frozen(member_stamp, held[3]),
        current_proposer, make_proposal_flag, members,
    ))
    key = hash(record)
    found = _RECORDS.get(key)
    if found is not None and found == record:
        return found
    if found is None:
        remember(_RECORDS, key, record)
    return record


def _through(name: str) -> property:
    """A field of the record, read through; a write rebinds the record
    (unless it writes the value already there)."""
    get = attrgetter(f"record.{name}")

    def rebind(state: "McState", value) -> None:
        if get(state) is not value:
            state.rebind(**{name: value})

    return property(get, rebind)


class McState:
    """All D-GMC state one switch keeps for one connection.

    ``received``, ``expected``, ``current_stamp``, ``member_stamp``,
    ``current_proposer``, ``make_proposal_flag`` and ``members`` read the
    :class:`Arbitration` record; assigning one (or several, through
    :meth:`rebind`) rebinds the record.  The values read are shared, so
    they refuse in-place writes.

    ``resume_from`` restores the (R, E, C, M) vectors saved when this
    connection's state was last destroyed at this switch (the *tombstone*;
    see :meth:`repro.core.switch.DgmcSwitch._maybe_destroy`).  Event counts
    are cumulative per origin and must never restart while other switches
    retain memory, or their staleness checks (``R[x] > T[x]``) would
    poison every post-recreation LSA.
    """

    received = _through("received")
    expected = _through("expected")
    current_stamp = _through("current_stamp")
    member_stamp = _through("member_stamp")
    current_proposer = _through("current_proposer")
    make_proposal_flag = _through("make_proposal_flag")
    members = _through("members")

    def __init__(
        self,
        spec: ConnectionSpec,
        n: int,
        resume_from: Optional[Tuple[Stamp, Stamp, Stamp, Stamp]] = None,
    ) -> None:
        self.spec = spec
        self.n = n
        if resume_from is None:
            resume_from = _FRESH
        received, expected, current, member = resume_from
        #: Figure 5's inputs, one shared value (see :class:`Arbitration`).
        self.record = arbitration(
            received, expected, current, member, n, False, _NO_MEMBERS
        )
        #: ReceiveLSA()'s mailbox -- every MC LSA delivered and not yet drained,
        #: oldest first -- and whether a ReceiveLSA() is scheduled or running
        #: (DgmcSwitch.deliver_mc_lsa).  Absent from :meth:`canonical`: the
        #: explorer fingerprints the queued LSAs themselves.
        self.inbox: List = []
        self.receiving = False
        #: The switch that owns this state, whose ReceiveLSA() a wake runs
        #: (repro.core.switch.receive_run).
        self.owner = None
        #: The currently installed topology (None before the first accept).
        self.installed: Optional[McTopology] = None
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

    def rebind(self, **fields) -> None:
        """Replace the named fields of the record (one new record)."""
        if "members" in fields:
            fields["members"] = member_map(fields["members"])
        self.record = arbitration(*map(fields.get, Arbitration._fields, self.record))

    # -- membership ------------------------------------------------------------

    def apply_join(self, switch: int, role: Optional[Role]) -> None:
        """Add (or extend) a member.  Role defaults by connection type."""
        resolved = role if role is not None else default_role(self.spec.ctype)
        self.members = self.members.joined(switch, resolved.as_role_set())

    def apply_leave(self, switch: int) -> None:
        """Remove a member entirely (idempotent)."""
        self.members = self.members.left(switch)

    @property
    def member_set(self) -> FrozenSet[int]:
        return self.members.switches

    @property
    def empty(self) -> bool:
        """True when the member list is empty (MC destruction trigger)."""
        return not self.members

    # -- timestamp predicates (the guards of Figures 4 and 5) ----------------

    def no_outstanding_lsas(self) -> bool:
        """``R >= E``: every LSA known to exist has been received."""
        return self.record.no_outstanding_lsas()

    def covers_new_events(self) -> bool:
        """``R > C``: events exist that the installed topology misses."""
        return self.record.covers_new_events()

    # -- canonicalization --------------------------------------------------------

    def canonical(self) -> tuple:
        """Hashable semantic fingerprint of this state: the record and the
        installed topology.

        Used by the systematic explorer (:mod:`repro.stress`) to collapse
        symmetric interleavings: two interleavings that leave every switch
        with component-wise equal vectors, the same membership view, and a
        byte-identical installed topology are behaviorally equivalent and
        explored once.  Records compare by content; the installed topology
        is canonicalized through the wire codec (members and edges sorted),
        so structurally equal topologies fingerprint equally regardless of
        construction order.
        """
        from repro.core.wire import encode_topology

        installed = (
            encode_topology(self.installed) if self.installed is not None else None
        )
        return self.record, installed

    # -- install -----------------------------------------------------------------

    def install(
        self,
        topology: McTopology,
        stamp: Stamp,
        now: float,
        proposer: int,
    ) -> None:
        """Adopt a topology: :func:`install_all` for this state alone."""
        install_all((self,), topology, stamp, now, proposer)

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


def install_all(
    states: Sequence[McState],
    topology: McTopology,
    stamp: Stamp,
    now: float,
    proposer: int,
) -> None:
    """Every state of ``states`` adopts a topology: set C and update
    "routing entries", one loop of stores.

    Installing reconciles fast reroute: any active backup fragments are
    retired (the re-proposed tree is the repair) and the stale plan is
    dropped -- the install path recomputes it against the new topology
    when FRR is enabled.
    """
    for state in states:
        state.installed = topology
        record = state.record
        current = record.current_stamp
        # A shared ReceiveLSA() transition may have installed them already.
        if (
            current is not stamp and current != stamp
        ) or record.current_proposer != proposer:
            state.rebind(current_stamp=stamp, current_proposer=proposer)
        state.last_install_time = now
        state.proposals_accepted += 1
        state.backup_plan = None
        if state.active_backup:
            state.frr_retired_pending += len(state.active_backup)
            state.active_backup = {}
            state.frr_epoch += 1


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

    @cached_property
    def decoded_topology(self) -> Optional[McTopology]:
        """``topology`` decoded, once per snapshot: the frame decoder reads
        it to validate the bytes, and ingest and install reuse it."""
        from repro.core.wire import decode_topology

        return None if self.topology is None else decode_topology(self.topology)

    def stamps(self) -> Tuple[Stamp, Stamp, Stamp, Stamp]:
        """R, E, C, M in wire order."""
        return self.received, self.expected, self.current, self.member_stamp
