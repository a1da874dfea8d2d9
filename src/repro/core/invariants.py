"""The D-GMC correctness contract: every named invariant, stated once.

The paper's claim is that concurrently computed proposals, ordered by the
R / E / C vector timestamps, leave every switch with the same member
list, the same C and the same installed topology once flooding
quiesces.  This module is the only place in ``src/`` that writes such a
condition down.  :func:`check_invariants` takes the plain data both
execution backends expose under the same names --
``states_for(connection_id)``, the physical ``net``, ``install_log`` --
plus a ``settled`` flag, and every harness calls it: the systematic
explorer (every state; ``settled`` in terminal loss-free states), the
chaos soak (stable points), the simulated-vs-live equivalence harness,
and :func:`verify_deployment`.  A violation is reported the same way
everywhere: a :class:`Violation` carrying a stable *invariant name* (CLI
exit messages, counterexample files and regression tests key on it) and
a human-readable detail.  The name x harness matrix is in
docs/systematic-testing.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.mc import ConnectionType
from repro.core.state import McState
from repro.core.timestamp import Stamp, stamp_gt
from repro.core.wire import decode_topology, encode_topology
from repro.lsr import spf
from repro.trees.algorithms import (
    dominant_members,
    reachable_members,
    receivers_of,
    senders_of,
)
from repro.trees.base import SHARED

# Asserted in every state a harness can observe (between handler invocations):
#: No switch ever replaces an installed topology with one whose stamp is
#: strictly dominated by it: arbitration keeps each switch's C non-decreasing.
STALE_INSTALL = "stale-install"
#: Every installed tree is acyclic and connected.
TREE_STRUCTURE = "tree-structure"
#: ``E >= R`` at every switch (DESIGN.md section 6.1); once settled,
#: ``R == E >= C``.
STAMP_ORDER = "stamp-order"
# Asserted only when settled (nothing in flight, nothing lost):
#: Every switch holding state agrees on the member list, the C stamp and
#: the installed topology (:func:`check_agreement`).
AGREEMENT = "agreement"
#: The installed topologies are byte-identical through the real wire codec.
TREE_BYTES = "tree-bytes"
#: Every installed tree spans the members it can serve over the up links.
SPANS = "spans"
#: Installed trees use only up links.
LINKS_UP = "links-up"
#: Live only: a cold-restarted switch holds a complete link-state database,
#: rebuilt by resync alone (the simulator never empties a database).
LSDB_COMPLETE = "lsdb-complete"

#: Every invariant name (docs and the matrix test enumerate these).
ALL_INVARIANTS = (
    AGREEMENT,
    TREE_BYTES,
    TREE_STRUCTURE,
    SPANS,
    STAMP_ORDER,
    LINKS_UP,
    STALE_INSTALL,
    LSDB_COMPLETE,
)
#: Names asserted only when ``settled`` (``stamp-order`` has a part in each).
SETTLED_ONLY = frozenset((AGREEMENT, TREE_BYTES, SPANS, LINKS_UP, LSDB_COMPLETE))
#: Names only the live runtime can break (see :func:`check_lsdb_complete`).
LIVE_ONLY = frozenset((LSDB_COMPLETE,))


@dataclass(frozen=True)
class Violation:
    """One broken invariant: a stable name plus a human-readable detail."""

    invariant: str
    detail: str
    context: str = ""

    def describe(self) -> str:
        prefix = f"{self.context}: " if self.context else ""
        return f"{prefix}{self.invariant}: {self.detail}"


def check_agreement(
    connection_id: int, states: Dict[int, McState]
) -> Tuple[bool, str]:
    """Check global agreement over a set of per-switch states.

    Returns ``(ok, detail)``: all switches holding state for the
    connection must agree on the member list, the C stamp, and the
    installed topology; mismatch details name the disagreeing switch and
    connection.  A connection with no state anywhere (fully destroyed)
    trivially agrees.
    """
    if not states:
        return True, (
            f"connection {connection_id}: no state anywhere (connection destroyed)"
        )
    reference_switch = min(states)
    ref = states[reference_switch]
    for x, state in sorted(states.items()):
        if state.members != ref.members:
            return False, (
                f"connection {connection_id}: member list mismatch at switch {x} "
                f"(vs switch {reference_switch}): "
                f"{sorted(state.members)} != {sorted(ref.members)}"
            )
        if state.current_stamp != ref.current_stamp:
            return False, (
                f"connection {connection_id}: C mismatch at switch {x} "
                f"(vs switch {reference_switch}): "
                f"{state.current_stamp} != {ref.current_stamp}"
            )
        if state.installed != ref.installed:
            return False, (
                f"connection {connection_id}: installed topology mismatch at "
                f"switch {x} (vs switch {reference_switch})"
            )
    return True, f"connection {connection_id}: {len(states)} switches agree"


def canonical_tree_bytes(states: Dict[int, McState]) -> Dict[int, bytes]:
    """Encode every installed topology through the real wire codec.

    Round-trips each encoding (decode, re-encode) and asserts stability,
    so a codec asymmetry can never masquerade as agreement.
    """
    trees: Dict[int, bytes] = {}
    for x, state in states.items():
        if state.installed is None:
            trees[x] = b""
            continue
        data = encode_topology(state.installed)
        assert encode_topology(decode_topology(data)) == data, (
            f"wire codec round-trip unstable for switch {x}"
        )
        trees[x] = data
    return trees


def unspanned_groups(ref: McState, adj) -> List[str]:
    """``spans`` details for one switch's installed topology.

    The servable group is the topology algorithms' own partition rule
    (:func:`~repro.trees.algorithms.dominant_members` for a shared tree,
    the receivers reachable from its source for a per-source tree)
    evaluated on the *physical* up links: a tree computed while part of
    the membership was unreachable legitimately omits it, but once the
    links are back and flooding has settled it must have been repaired.
    """
    if ref.installed is None:
        return []
    if ref.spec.ctype is ConnectionType.ASYMMETRIC:
        receivers = receivers_of(ref.members)
        wanted = {
            s: reachable_members(adj, receivers | {s}, anchor=s)
            for s in senders_of(ref.members)
        }
    else:
        wanted = {SHARED: dominant_members(adj, ref.member_set)}
    trees = ref.installed.tree_map()
    problems = []
    for key, group in sorted(wanted.items()):
        if len(group) > 1 and not (key in trees and trees[key].spans(group)):
            label = "shared tree" if key == SHARED else f"tree {key}"
            problems.append(f"{label} does not span members {sorted(group)}")
    return problems


def check_invariants(
    connection_id: int,
    states: Dict[int, McState],
    net,
    install_log: Iterable,
    settled: bool,
    context: str = "",
) -> List[Violation]:
    """Every violated invariant of one connection -- the one entry point.

    ``states`` are the per-switch states of the live switches
    (``states_for(connection_id)``), ``net`` the physical
    :class:`~repro.topo.graph.Network` (its up links), ``install_log``
    the backend's :class:`~repro.core.protocol.InstallRecord` list.
    ``settled`` asserts the convergence conditions too: the caller
    vouches that flooding has quiesced with nothing lost.
    """
    found: List[Violation] = []

    def broken(invariant: str, detail: str) -> None:
        found.append(Violation(invariant, detail, context))

    installed: Dict[int, Stamp] = {}
    for record in install_log:
        if record.connection_id != connection_id:
            continue
        prev = installed.get(record.switch)
        if prev is not None and stamp_gt(prev, record.stamp):
            broken(
                STALE_INSTALL,
                f"switch {record.switch} replaced installed stamp {prev} with "
                f"dominated stamp {record.stamp} (proposer {record.proposer})",
            )
        installed[record.switch] = record.stamp
    trees = [
        (x, key, tree)
        for x, state in sorted(states.items())
        if state.installed is not None
        for key, tree in state.installed.trees
    ]
    for x, key, tree in trees:
        if not tree.is_tree():
            broken(TREE_STRUCTURE, f"switch {x}: installed topology (key {key}) is not a tree")
    if settled:
        ok, detail = check_agreement(connection_id, states)
        if not ok:
            broken(AGREEMENT, detail)
        if len(set(canonical_tree_bytes(states).values())) > 1:
            broken(TREE_BYTES, "installed trees differ on the wire")
        if states:
            adj = spf.network_adjacency(net)
            for detail in unspanned_groups(states[min(states)], adj):
                broken(SPANS, detail)
    for x, state in sorted(states.items()):
        if not state.expected.geq(state.received):
            broken(STAMP_ORDER, f"switch {x}: E < R ({state.expected} vs {state.received})")
        elif settled and not state.received.geq(state.expected):
            broken(STAMP_ORDER, f"switch {x}: R < E at quiescence")
        elif settled and not state.received.geq(state.current_stamp):
            broken(STAMP_ORDER, f"switch {x}: C exceeds R at quiescence")
    if settled:
        up = {link.key for link in net.links()}
        for x, key, tree in trees:
            if not tree.edges <= up:
                down = sorted(tree.edges - up)
                broken(LINKS_UP, f"switch {x}: tree {key} uses down links {down}")
    return found


def check_lsdb_complete(lsdbs: Dict[int, object], context: str = "") -> List[Violation]:
    """``lsdb-complete`` over the databases of cold-restarted switches."""
    return [
        Violation(LSDB_COMPLETE, f"restarted switch {x} has an incomplete LSDB", context)
        for x, lsdb in sorted(lsdbs.items())
        if not lsdb.complete()
    ]


class VerificationError(AssertionError):
    """A protocol invariant does not hold."""


@dataclass
class VerificationReport:
    """What one :func:`verify_deployment` pass checked."""

    connection_id: int
    checks: List[str] = field(default_factory=list)


def verify_deployment(
    dgmc, connection_id: int, expect_members: Optional[frozenset] = None
) -> VerificationReport:
    """Raise :class:`VerificationError` on the first violated invariant of a
    quiescent :class:`~repro.core.protocol.DgmcNetwork`, or on a member list
    other than ``expect_members`` (failed switches excepted); else report
    what held.  The library form of the contract for downstream users."""
    if not dgmc.quiescent():
        raise VerificationError("deployment is not quiescent")
    dead = dgmc.dead_switches
    states = {x: s for x, s in dgmc.states_for(connection_id).items() if x not in dead}
    found = check_invariants(connection_id, states, dgmc.net, dgmc.install_log, settled=True)
    if found:
        raise VerificationError(found[0].describe())
    members = frozenset(states[min(states)].members) - dead if states else frozenset()
    if expect_members is not None and members != frozenset(expect_members) - dead:
        raise VerificationError(
            f"member list {sorted(members)} != expected {sorted(expect_members)}"
            + ("" if states else " (connection destroyed everywhere)")
        )
    held = [f"{name} holds" for name in ALL_INVARIANTS if name not in LIVE_ONLY]
    topology = "installed topology valid" if states else "connection destroyed everywhere"
    return VerificationReport(connection_id, ["quiescent", *held, topology])
