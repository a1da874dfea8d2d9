"""Batched data-plane forwarding over compiled flat-array state.

The paper's traffic-side claim (Section 2) is that D-GMC's precomputed
per-connection topologies make forwarding cheap: unlike MOSPF, no
shortest-path computation ever runs on the data path.  The reference
:class:`~repro.dataplane.forwarding.ForwardingEngine` demonstrates the
*semantics* of that data plane but walks dicts and schedules one simulator
event per hop per packet -- far too slow to drive traffic at volume.

:class:`BatchForwardingEngine` is the volume path.  It compiles each
switch's installed :class:`~repro.trees.base.McTopology` into CSR
next-hop arrays -- one row per (switch, tree key), holding only *live*
out-edges with their hop costs -- plus per-switch member/deliver bitmaps.
Because packets of the same flow (connection, source) injected into the
same control-plane snapshot are processed identically by the reference
engine, the engine replays the reference semantics **once** per flow into
a :class:`_FlowTemplate` (delivery latencies, hop count, duplicate and
TTL-drop counts) and then stamps whole batches against the template in
O(1) per packet.

Invalidation:

* **install generation** -- every topology install appends to
  ``DgmcNetwork.install_log``; :meth:`BatchForwardingEngine.refresh`
  scans the new suffix and drops compiled state and templates for
  exactly the touched connections.
* **physical generation** -- ``Network.version`` advances on every link
  add or up/down flip.  When :meth:`~repro.topo.graph.Network.
  up_delta_since` can name the single changed link, only connections
  whose compiled state *depends* on it (a tree edge, an active detour
  link, or any unicast-stage template) are dropped -- counted by
  ``dataplane_partial_invalidations_total`` -- so one failure does not
  recompile every unrelated group; a wider gap falls back to dropping
  everything.
* **fast-reroute epoch** -- backup fragment activation/retirement
  mutates :class:`~repro.core.state.McState` without an install record
  or a version bump; under ``enable_frr`` the engine snapshots each
  connection's summed ``frr_epoch`` at compile time and re-checks it on
  refresh (scoped drop on change).  With FRR off this scan never runs.

Active backup fragments compile as *splices*: a dead tree edge covered
by an activated fragment becomes one logical CSR entry to the far
endpoint whose cost is the detour's left-to-right link-delay sum and
whose hop span is the detour length, so stamped timestamps, hop counts,
and TTL behavior match the reference engine's tunnel semantics bit for
bit.

Equivalence contract: dispatching at a quiescent point (no in-flight
LSAs, proposals, or membership churn) produces records identical to the
reference engine, field for field -- the Hypothesis property test in
``tests/test_dataplane.py`` enforces this.  Dispatching mid-transient is
permitted but sees membership as of the last install; callers that
mutate ``McState`` out-of-band (without an install record) must call
:meth:`invalidate` themselves.
"""

from __future__ import annotations

import heapq
from array import array
from itertools import accumulate
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.mc import ConnectionType
from repro.core.protocol import DgmcNetwork
from repro.dataplane.forwarding import DeliveryReport
from repro.dataplane.packet import DeliveryRecord, McPacket
from repro.frr import detour_delay, detour_is_live
from repro.lsr import spf
from repro.obs import tracer as tracer_module
from repro.trees.algorithms import RECEIVER
from repro.trees.base import SHARED, McTopology

#: CSR row bundle per tree key: (indptr, neighbor ids, per-hop costs,
#: per-entry hop spans).  Spans are 1 for ordinary tree edges and the
#: detour length for spliced backup fragments.
_CsrRows = Dict[int, Tuple[array, array, array, array]]

_TREE, _UNICAST = 0, 1


def _fold_time(at: float, chain: Tuple[float, ...]) -> float:
    """Arrival time for a hop-cost chain, in reference addition order."""
    t = at
    for cost in chain:
        t += cost
    return t


class _CompiledTopology:
    """CSR fan-out arrays for one unique installed topology object."""

    __slots__ = ("rows",)

    def __init__(self, rows: _CsrRows) -> None:
        self.rows = rows


class _FlowTemplate:
    """Precomputed delivery outcome for one (connection, source) flow.

    ``deliveries`` holds per-receiver *hop-cost chains* rather than
    latency sums: the reference engine computes each arrival time by
    sequential addition along the scheduled path (``((t0+d1)+d2)+...``),
    so stamping folds the chain from the injection time in the same
    association order and reproduces the reference timestamps bit for
    bit at any dispatch time.
    """

    __slots__ = (
        "undeliverable", "intended", "deliveries", "hops", "duplicates", "ttl_drops",
    )

    def __init__(
        self,
        undeliverable: bool,
        intended: FrozenSet[int],
        deliveries: Tuple[Tuple[int, Tuple[float, ...]], ...],
        hops: int,
        duplicates: int,
        ttl_drops: int,
    ) -> None:
        self.undeliverable = undeliverable
        self.intended = intended
        self.deliveries = deliveries
        self.hops = hops
        self.duplicates = duplicates
        self.ttl_drops = ttl_drops


class _CompiledConnection:
    """All compiled forwarding state for one connection.

    Per-switch fields index 0..n-1 and describe *that switch's own* view
    (during reconvergence the views differ; the compiler groups switches
    by state / installed-topology identity so converged deployments --
    where every switch shares one view -- compile each view exactly once).
    """

    __slots__ = (
        "connection_id", "n", "asymmetric",
        "topo_of", "topologies", "member_bit", "deliver_bit",
        "members_of", "intended_of",
        "dep_links", "uses_unicast", "frr_epoch",
    )

    def __init__(self, connection_id: int, n: int) -> None:
        self.connection_id = connection_id
        self.n = n
        self.asymmetric = False
        #: Canonical links this compiled state depends on: every tree
        #: edge (live or dead) plus every link of a spliced detour.  The
        #: scoped-invalidation path keeps the connection compiled when a
        #: single link change misses this set entirely.
        self.dep_links: set = set()
        #: True once any template rode the unicast (receiver-only
        #: contact) stage -- those depend on arbitrary routing-table
        #: state, so any link change invalidates them.
        self.uses_unicast = False
        #: Summed ``McState.frr_epoch`` across the distinct holder
        #: states at compile time (FRR change detector).
        self.frr_epoch = 0
        #: Per switch: index into ``topologies`` (-1: no state or no install).
        self.topo_of: List[int] = [-1] * n
        self.topologies: List[_CompiledTopology] = []
        #: Per switch: 1 when the switch is a member in its own view.
        self.member_bit = bytearray(n)
        #: Per switch: 1 when a local delivery happens there (member with a
        #: receiver-eligible role).
        self.deliver_bit = bytearray(n)
        #: Per switch: its own member set / intended-receiver set (None: no
        #: state); shared frozensets across switches with identical views.
        self.members_of: List[Optional[FrozenSet[int]]] = [None] * n
        self.intended_of: List[Optional[FrozenSet[int]]] = [None] * n


class BatchForwardingEngine:
    """Dispatches traffic batches against compiled forwarding state."""

    def __init__(
        self,
        dgmc: DgmcNetwork,
        hop_delay: Optional[float] = None,
        ttl: Optional[int] = None,
    ) -> None:
        self.dgmc = dgmc
        #: Data-packet per-hop delay; defaults to the physical link delay
        #: (must match the reference engine's setting for equivalence).
        self.hop_delay = hop_delay
        #: Hop limit per packet; defaults to 4n like the reference engine.
        self.ttl = ttl
        self.report = DeliveryReport()
        self._compiled: Dict[int, _CompiledConnection] = {}
        self._templates: Dict[int, Dict[int, _FlowTemplate]] = {}
        self._net_version = dgmc.net.version
        self._log_pos = len(dgmc.install_log)
        metrics = dgmc.metrics
        self._batches = metrics.counter(
            "dataplane_batches_total", "Batches dispatched by the batched engine")
        self._packets = metrics.counter(
            "dataplane_packets_total", "Packets dispatched by the batched engine")
        self._compiles = metrics.counter(
            "dataplane_compiled_connections_total",
            "Connections compiled into CSR forwarding arrays")
        self._template_builds = metrics.counter(
            "dataplane_template_builds_total",
            "Flow templates built by replaying reference semantics")
        self._template_hits = metrics.counter(
            "dataplane_template_hits_total",
            "Packets served from an existing flow template")
        self._invalidations = metrics.counter(
            "dataplane_invalidations_total",
            "Compiled connections dropped by install/link-generation changes")
        self._partial_invalidations = metrics.counter(
            "dataplane_partial_invalidations_total",
            "Refreshes resolved by scoped (per-connection) invalidation "
            "instead of dropping all compiled state")
        self._ttl_drop_counter = metrics.counter(
            "dataplane_ttl_drops_total",
            "Forwarding steps suppressed by the hop limit")

    # -- public API -----------------------------------------------------------

    def send(self, packet: McPacket, at: float) -> DeliveryRecord:
        """Dispatch a single packet (convenience over :meth:`dispatch`)."""
        return self.dispatch([packet], at)[0]

    def dispatch(
        self, packets: Iterable[McPacket], at: float
    ) -> List[DeliveryRecord]:
        """Dispatch one batch injected at time ``at``; returns its records.

        Unlike the reference engine this does not touch the simulator:
        delivery times are stamped from the flow template (``at`` plus
        the precomputed per-receiver latency).
        """
        batch = list(packets)
        self.refresh()
        tracer = tracer_module.TRACER
        if tracer.enabled:
            with tracer.span(
                "batch_dispatch", cat="dataplane", sim_time=at, packets=len(batch)
            ):
                records = self._dispatch(batch, at)
        else:
            records = self._dispatch(batch, at)
        self._batches.inc()
        self._packets.inc(len(batch))
        return records

    def refresh(self) -> None:
        """Drop compiled state invalidated since the last dispatch.

        A ``Network.version`` change (link added / up / down) that
        :meth:`~repro.topo.graph.Network.up_delta_since` can pin to a
        single link drops only the connections depending on it (tree
        edge, spliced detour link, or any unicast-stage template);
        wider gaps drop everything.  New ``install_log`` entries drop
        exactly the touched connections.  Under ``enable_frr``, a
        changed per-connection ``frr_epoch`` sum (activation or
        retirement without an install record or version bump) also
        drops that connection only.
        """
        net_version = self.dgmc.net.version
        if net_version != self._net_version:
            delta = self.dgmc.net.up_delta_since(self._net_version)
            if delta is None:
                self._invalidations.inc(len(self._compiled))
                self._compiled.clear()
                self._templates.clear()
                self._net_version = net_version
                self._log_pos = len(self.dgmc.install_log)
                return
            if delta:
                u, v = delta[0][0], delta[0][1]
                edge = (u, v) if u <= v else (v, u)
                for m in [
                    m for m, c in self._compiled.items()
                    if c.uses_unicast or edge in c.dep_links
                ]:
                    self.invalidate(m)
                self._partial_invalidations.inc()
            self._net_version = net_version
        log = self.dgmc.install_log
        if len(log) > self._log_pos:
            for m in {record.connection_id for record in log[self._log_pos:]}:
                self.invalidate(m)
            self._log_pos = len(log)
        if self._compiled and self.dgmc.config.enable_frr:
            stale = [
                m for m, c in self._compiled.items()
                if self._frr_epoch_sum(m) != c.frr_epoch
            ]
            for m in stale:
                self.invalidate(m)
            if stale:
                self._partial_invalidations.inc()

    def _frr_epoch_sum(self, connection_id: int) -> int:
        """Summed ``frr_epoch`` over the distinct holder states."""
        total = 0
        seen: set = set()
        for switch in self.dgmc.switches.values():
            state = switch.states.get(connection_id)
            if state is not None and id(state) not in seen:
                seen.add(id(state))
                total += state.frr_epoch
        return total

    def invalidate(self, connection_id: Optional[int] = None) -> None:
        """Drop compiled state for one connection (or all, when ``None``).

        Callers that mutate :class:`~repro.core.state.McState` without an
        install record (no ``install_log`` entry) must call this before
        the next dispatch, or the engine keeps forwarding on the old view.
        """
        if connection_id is None:
            self._invalidations.inc(len(self._compiled))
            self._compiled.clear()
            self._templates.clear()
            return
        dropped = self._compiled.pop(connection_id, None) is not None
        dropped = self._templates.pop(connection_id, None) is not None or dropped
        if dropped:
            self._invalidations.inc()

    # -- compilation -----------------------------------------------------------

    def _template(self, connection_id: int, source: int) -> _FlowTemplate:
        per_flow = self._templates.setdefault(connection_id, {})
        template = per_flow.get(source)
        if template is not None:
            self._template_hits.inc()
            return template
        compiled = self._compiled.get(connection_id)
        if compiled is None:
            compiled = self._compile(connection_id)
            self._compiled[connection_id] = compiled
            self._compiles.inc()
        template = self._replay(compiled, source)
        per_flow[source] = template
        self._template_builds.inc()
        return template

    def _compile(self, connection_id: int) -> _CompiledConnection:
        n = self.dgmc.net.n
        compiled = _CompiledConnection(connection_id, n)
        # Group holders by state identity: a converged deployment (or one
        # seeded by ConvergedGroups) shares one state object everywhere,
        # so each distinct view is analyzed exactly once.
        states: Dict[int, object] = {}
        holders: Dict[int, List[int]] = {}
        for x, switch in self.dgmc.switches.items():
            state = switch.states.get(connection_id)
            if state is not None:
                key = id(state)
                row = holders.get(key)
                if row is None:
                    states[key] = state
                    holders[key] = [x]
                else:
                    row.append(x)
        topo_index: Dict[tuple, int] = {}
        for key, switches in holders.items():
            state = states[key]
            compiled.frr_epoch += state.frr_epoch
            asymmetric = state.spec.ctype is ConnectionType.ASYMMETRIC
            compiled.asymmetric = asymmetric
            members = state.member_set
            if asymmetric:
                intended = frozenset(
                    m for m, roles in state.members.items() if RECEIVER in roles
                )
                delivering = intended
            else:
                intended = members
                delivering = members
            topo = -1
            if state.installed is not None:
                # Two views sharing one installed object can still hold
                # different active fragments (activation is per state),
                # so the dedup key covers the splice content too.
                topo_key = (
                    id(state.installed),
                    tuple(
                        (edge, fragment.path)
                        for edge, fragment in sorted(state.active_backup.items())
                    ),
                )
                topo = topo_index.get(topo_key, -1)
                if topo < 0:
                    topo = len(compiled.topologies)
                    compiled.topologies.append(
                        self._compile_topology(
                            state.installed, n,
                            state.active_backup, compiled.dep_links,
                        )
                    )
                    topo_index[topo_key] = topo
            if len(holders) == 1 and len(switches) == n:
                # Fully converged: one shared view everywhere (the common
                # case after quiescence and the ConvergedGroups fast path).
                compiled.members_of = [members] * n
                compiled.intended_of = [intended] * n
                compiled.topo_of = [topo] * n
                for m in members:
                    compiled.member_bit[m] = 1
                for m in delivering:
                    compiled.deliver_bit[m] = 1
                break
            for x in switches:
                compiled.members_of[x] = members
                compiled.intended_of[x] = intended
                if x in members:
                    compiled.member_bit[x] = 1
                    if x in delivering:
                        compiled.deliver_bit[x] = 1
                compiled.topo_of[x] = topo
        return compiled

    def _compile_topology(
        self,
        topology: McTopology,
        n: int,
        active_backup: Dict[Tuple[int, int], object],
        dep_links: set,
    ) -> _CompiledTopology:
        """CSR rows per tree key, dead links excluded at compile time.

        Neighbor order within a row reproduces the reference engine's
        traversal order (other endpoints of the sorted incident edges,
        then detour splices in the same edge order), so replays fan out
        in the identical sequence.

        A dead tree edge covered by an *activated* backup fragment whose
        detour is fully live compiles into one logical entry to the far
        endpoint: cost is the detour's link delays summed left to right
        from this endpoint (matching :func:`repro.frr.detour_delay`'s
        addition order, so folded timestamps stay bit-exact against the
        reference engine) and span is the detour hop length.
        """
        net = self.dgmc.net
        hop_delay = self.hop_delay

        def hop_cost(a: int, b: int) -> float:
            if hop_delay is not None:
                return hop_delay
            return net.link(a, b).delay

        rows: _CsrRows = {}
        for tree_key, tree in topology.trees:
            per_node: Dict[int, List[Tuple[int, float, int]]] = {}
            dead: List[Tuple[int, int]] = []
            for u, v in sorted(tree.edges):
                dep_links.add((u, v) if u <= v else (v, u))
                if not net.has_link(u, v) or not net.link(u, v).up:
                    dead.append((u, v))
                    continue  # data-plane drop on a dead link
                cost = hop_cost(u, v)
                per_node.setdefault(u, []).append((v, cost, 1))
                per_node.setdefault(v, []).append((u, cost, 1))
            if active_backup:
                for u, v in dead:
                    key = (u, v) if u <= v else (v, u)
                    fragment = active_backup.get(key)
                    if fragment is None or not detour_is_live(fragment, net):
                        continue
                    for a, b in zip(fragment.path, fragment.path[1:]):
                        dep_links.add((a, b) if a <= b else (b, a))
                    span = fragment.span
                    per_node.setdefault(u, []).append(
                        (v, detour_delay(fragment, u, hop_cost), span)
                    )
                    per_node.setdefault(v, []).append(
                        (u, detour_delay(fragment, v, hop_cost), span)
                    )
            counts = [0] * n
            for x, out in per_node.items():
                counts[x] = len(out)
            indptr = array("l", accumulate(counts, initial=0))
            neighbors = array("l")
            costs = array("d")
            spans = array("l")
            for x in sorted(per_node):
                for nbr, cost, span in per_node[x]:
                    neighbors.append(nbr)
                    costs.append(cost)
                    spans.append(span)
            rows[tree_key] = (indptr, neighbors, costs, spans)
        return _CompiledTopology(rows)

    # -- template replay ---------------------------------------------------------

    def _nearest_member(
        self, source: int, members: FrozenSet[int]
    ) -> Optional[int]:
        """The receiver-only contact node, exactly as the reference picks it."""
        if not members:
            return None
        image = self.dgmc.routers[source].network_image()
        dist, _ = spf.dijkstra(image, source)
        reachable = [(dist[m], m) for m in sorted(members) if m in dist]
        return min(reachable)[1] if reachable else None

    def _replay(self, compiled: _CompiledConnection, source: int) -> _FlowTemplate:
        """Replay the reference engine's per-packet walk over the arrays.

        Exactness argument: reference packets share no mutable state (the
        duplicate-suppression set is per packet, records are per packet),
        and the simulator orders events by ``(time, seq)`` with ``seq``
        drawn at scheduling time -- so a packet's own events pop in the
        same relative order from a local ``(time, seq)`` heap as from the
        global queue, and the walk below is delivery-for-delivery
        identical to the reference at any fixed control-plane snapshot.
        """
        n = compiled.n
        if compiled.members_of[source] is None or compiled.topo_of[source] < 0:
            return _FlowTemplate(True, frozenset(), (), 0, 0, 0)
        intended = compiled.intended_of[source] or frozenset()
        tree_key = source if compiled.asymmetric else SHARED
        initial_ttl = self.ttl if self.ttl is not None else 4 * n

        topo_of = compiled.topo_of
        topologies = compiled.topologies
        member_bit = compiled.member_bit
        deliver_bit = compiled.deliver_bit

        def row(x: int) -> Optional[Tuple[array, array, array]]:
            index = topo_of[x]
            return None if index < 0 else topologies[index].rows.get(tree_key)

        def on_tree(x: int) -> bool:
            if member_bit[x]:
                return True
            r = row(x)
            return r is not None and r[0][x + 1] > r[0][x]

        seen: set = set()
        delivered: Dict[int, Tuple[float, ...]] = {}
        hops = duplicates = ttl_drops = 0
        heap: List[tuple] = []
        seq = 0

        def push(
            t: float, kind: int, node: int, extra, ttl: int,
            chain: Tuple[float, ...],
        ) -> None:
            nonlocal seq
            heapq.heappush(heap, (t, seq, kind, node, extra, ttl, chain))
            seq += 1

        def tree_arrive(
            t: float, x: int, came_from: Optional[int], ttl: int,
            chain: Tuple[float, ...],
        ) -> None:
            nonlocal hops, duplicates, ttl_drops
            if x in seen:
                duplicates += 1
                return
            seen.add(x)
            if deliver_bit[x] and x not in delivered:
                delivered[x] = chain
            r = row(x)
            if r is None:
                return
            indptr, neighbors, costs, spans = r
            targets = [
                i for i in range(indptr[x], indptr[x + 1])
                if neighbors[i] != came_from
            ]
            if ttl <= 0:
                if targets:
                    ttl_drops += 1  # the hop limit suppressed real fan-out
                return
            for i in targets:
                span = spans[i]
                if span > ttl:
                    ttl_drops += 1  # detour longer than the remaining ttl
                    continue
                hops += span
                push(t + costs[i], _TREE, neighbors[i], x, ttl - span,
                     chain + (costs[i],))

        if on_tree(source):
            push(0.0, _TREE, source, None, initial_ttl, ())
        else:
            compiled.uses_unicast = True
            contact = self._nearest_member(source, compiled.members_of[source])
            if contact is None:
                return _FlowTemplate(True, intended, (), 0, 0, 0)
            push(0.0, _UNICAST, source, contact, initial_ttl, ())

        while heap:
            t, _, kind, node, extra, ttl, chain = heapq.heappop(heap)
            if kind == _TREE:
                tree_arrive(t, node, extra, ttl, chain)
                continue
            # Unicast stage of receiver-only delivery, toward the contact.
            if on_tree(node):
                tree_arrive(t, node, None, ttl, chain)
                continue
            next_hop = self.dgmc.routers[node].next_hop(extra)
            if next_hop is None or not self.dgmc.net.link(node, next_hop).up:
                continue  # unroutable right now: dropped
            if ttl <= 0:
                ttl_drops += 1
                continue
            hops += 1
            cost = (
                self.hop_delay
                if self.hop_delay is not None
                else self.dgmc.net.link(node, next_hop).delay
            )
            push(t + cost, _UNICAST, next_hop, extra, ttl - 1, chain + (cost,))

        return _FlowTemplate(
            False, intended, tuple(delivered.items()), hops, duplicates, ttl_drops
        )

    # -- batch stamping -----------------------------------------------------------

    def _dispatch(self, batch: List[McPacket], at: float) -> List[DeliveryRecord]:
        records: List[DeliveryRecord] = []
        add = self.report.records.append
        # Same flow + same injection time => identical outcome; resolve the
        # template and stamp the delivered map once per flow per batch.
        # Same-flow records share the delivered mapping (treat it as
        # read-only); each reference-engine record owns its dict, but the
        # contents -- what equivalence is defined over -- are identical.
        stamped: Dict[Tuple[int, int], Tuple[_FlowTemplate, Dict[int, float]]] = {}
        ttl_drops = 0
        for packet in batch:
            flow = (packet.connection_id, packet.source)
            cached = stamped.get(flow)
            if cached is None:
                template = self._template(packet.connection_id, packet.source)
                delivered = {
                    x: _fold_time(at, chain) for x, chain in template.deliveries
                }
                stamped[flow] = (template, delivered)
            else:
                template, delivered = cached
                self._template_hits.inc()
            ttl_drops += template.ttl_drops
            packet.sent_at = at
            record = DeliveryRecord(
                packet,
                delivered=delivered,
                intended=template.intended,
                hops=template.hops,
                duplicates=template.duplicates,
                ttl_drops=template.ttl_drops,
                undeliverable=template.undeliverable,
            )
            add(record)
            records.append(record)
        if ttl_drops:
            self._ttl_drop_counter.inc(ttl_drops)
        return records
