"""Batched data-plane forwarding over cached flow templates.

The paper's traffic-side claim (Section 2) is that D-GMC's precomputed
per-connection topologies make forwarding cheap: unlike MOSPF, no
shortest-path computation ever runs on the data path.  The reference
:class:`~repro.dataplane.forwarding.ForwardingEngine` demonstrates the
*semantics* of that data plane but schedules one simulator event per hop
per packet -- far too slow to drive traffic at volume.

:class:`BatchForwardingEngine` is the volume path.  Packets of the same
flow (connection, source) injected into the same control-plane snapshot
are processed identically by the reference engine, so the batched engine
walks each flow **once** into a :class:`_FlowTemplate` (per-receiver
hop-cost chains, hop count, duplicate and TTL-drop counts) and then stamps
whole batches against the template in O(1) per packet.  The walk is a
local ``(time, seq)`` heap that calls the reference engine's own per-hop
rules -- tree fan-out, dead-link drops, FRR detours, the unicast contact
stage, delivery roles, the TTL guard -- so there is one implementation of
each rule, and the batched engine adds only the caching around it.

Invalidation:

* **install generation** -- every topology install is recorded in
  ``DgmcNetwork.install_log``; :meth:`BatchForwardingEngine.refresh`
  reads the connection column from where it last stopped and drops the
  templates of exactly the touched connections.
* **physical generation** -- ``Network.version`` advances on every link
  add or up/down flip.  When :meth:`~repro.topo.graph.Network.
  up_delta_since` can name the single changed link ``(u, v)``, only the
  connections whose walks may have read it are dropped -- counted by
  ``dataplane_partial_invalidations_total`` -- so one failure does not
  rebuild every unrelated group; a wider gap falls back to dropping
  everything.  A walk reads link state only at the incident tree edges of
  the switches it visits and along the detours of the active fragments
  held there, plus, on the unicast contact stage, routing state anywhere.
  So a connection is dropped iff u or v is a visited switch or a node of
  such a detour, or one of its walks rode unicast: that set is sound.
* **fast-reroute epoch** -- backup fragment activation/retirement
  mutates :class:`~repro.core.state.McState` without an install record
  or a version bump; under ``enable_frr`` the engine snapshots each
  connection's summed ``frr_epoch`` when its first template is built and
  re-checks it on refresh (scoped drop on change).  With FRR off this
  scan never runs.

Equivalence contract: dispatching at a quiescent point (no in-flight
LSAs, proposals, or membership churn) produces records identical to the
reference engine, field for field -- the Hypothesis property tests in
``tests/test_dataplane.py`` enforce this.  Dispatching mid-transient is
permitted but sees membership as of the last install; callers that
mutate ``McState`` out-of-band (without an install record) must call
:meth:`invalidate` themselves.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.protocol import DgmcNetwork
from repro.dataplane.forwarding import DeliveryReport, ForwardingEngine
from repro.dataplane.packet import DeliveryRecord, McPacket
from repro.obs import tracer as tracer_module


def _fold_time(at: float, chain: Tuple[float, ...]) -> float:
    """Arrival time for a hop-cost chain, in reference addition order."""
    t = at
    for cost in chain:
        t += cost
    return t


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
    """One connection's flow templates and what their walks read."""

    __slots__ = ("templates", "reads", "uses_unicast", "frr_epoch")

    def __init__(self, frr_epoch: int) -> None:
        #: Source switch -> its flow template.
        self.templates: Dict[int, _FlowTemplate] = {}
        #: Switches whose link state some walk may have read: every
        #: visited switch plus the path nodes of the active fragments it
        #: holds.  A single link change touching neither endpoint keeps
        #: the templates.
        self.reads: Set[int] = set()
        #: True once any walk could not start on its source's tree: the
        #: receiver-only contact stage reads routing state anywhere, so
        #: any link change drops the connection.
        self.uses_unicast = False
        #: Summed ``McState.frr_epoch`` across the distinct holder states
        #: when the first template was built (FRR change detector).
        self.frr_epoch = frr_epoch


class BatchForwardingEngine:
    """Dispatches traffic batches against cached flow templates."""

    def __init__(
        self,
        dgmc: DgmcNetwork,
        hop_delay: Optional[float] = None,
        ttl: Optional[int] = None,
    ) -> None:
        self.dgmc = dgmc
        #: The per-hop rules every template walk asks, with the per-hop
        #: delay and hop limit (both must match the reference engine's
        #: settings for equivalence).
        self._rules = ForwardingEngine(dgmc, hop_delay, ttl)
        self.report = DeliveryReport()
        self._compiled: Dict[int, _CompiledConnection] = {}
        self._net_version = dgmc.net.version
        self._log_pos = len(dgmc.install_log)
        metrics = dgmc.metrics
        self._batches = metrics.counter(
            "dataplane_batches_total", "Batches dispatched by the batched engine")
        self._packets = metrics.counter(
            "dataplane_packets_total", "Packets dispatched by the batched engine")
        self._compiles = metrics.counter(
            "dataplane_compiled_connections_total",
            "Connections whose flow templates were (re)started from empty")
        self._template_builds = metrics.counter(
            "dataplane_template_builds_total",
            "Flow templates built by walking the reference rules")
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
        """Drop flow templates invalidated since the last dispatch.

        A ``Network.version`` change (link added / up / down) that
        :meth:`~repro.topo.graph.Network.up_delta_since` can pin to a
        single link drops only the connections whose walks read it
        (see the module docstring); wider gaps drop everything.  New
        ``install_log`` entries drop exactly the touched connections.
        Under ``enable_frr``, a changed per-connection ``frr_epoch`` sum
        (activation or retirement without an install record or version
        bump) also drops that connection only.
        """
        net_version = self.dgmc.net.version
        if net_version != self._net_version:
            delta = self.dgmc.net.up_delta_since(self._net_version)
            if delta is None:
                self.invalidate()
                self._net_version = net_version
                self._log_pos = len(self.dgmc.install_log)
                return
            if delta:
                u, v = delta[0][0], delta[0][1]
                for m in [
                    m for m, c in self._compiled.items()
                    if c.uses_unicast or u in c.reads or v in c.reads
                ]:
                    self.invalidate(m)
                self._partial_invalidations.inc()
            self._net_version = net_version
        log = self.dgmc.install_log
        if len(log) > self._log_pos:
            for m in log.connections_since(self._log_pos):
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
        """Drop the templates of one connection (or all, when ``None``).

        Callers that mutate :class:`~repro.core.state.McState` without an
        install record (no ``install_log`` entry) must call this before
        the next dispatch, or the engine keeps forwarding on the old view.
        """
        if connection_id is None:
            self._invalidations.inc(len(self._compiled))
            self._compiled.clear()
        elif self._compiled.pop(connection_id, None) is not None:
            self._invalidations.inc()

    # -- flow templates ----------------------------------------------------------

    def _template(self, packet: McPacket) -> _FlowTemplate:
        """The template of ``packet``'s flow; a miss walks ``packet``
        through the reference rules."""
        connection_id, source = packet.connection_id, packet.source
        compiled = self._compiled.get(connection_id)
        if compiled is None:
            epoch = self._frr_epoch_sum(connection_id) if self.dgmc.config.enable_frr else 0
            compiled = self._compiled[connection_id] = _CompiledConnection(epoch)
            self._compiles.inc()
        template = compiled.templates.get(source)
        if template is not None:
            self._template_hits.inc()
            return template
        template = self._walk(packet, compiled)
        compiled.templates[source] = template
        self._template_builds.inc()
        return template

    def _walk(self, packet: McPacket, compiled: _CompiledConnection) -> _FlowTemplate:
        """Run the reference engine's per-packet walk on a local heap.

        Exactness argument: reference packets share no mutable state (the
        duplicate-suppression set is per packet, records are per packet),
        and the simulator orders events by ``(time, seq)`` with ``seq``
        drawn at scheduling time -- so a packet's own events pop in the
        same relative order from a local ``(time, seq)`` heap as from the
        global queue.  Every decision below is the reference engine's own
        method, so the walk is delivery-for-delivery identical to the
        reference at any fixed control-plane snapshot.  Arrival times are
        carried as hop-cost chains, not sums (see :class:`_FlowTemplate`).
        """
        rules = self._rules
        tally = DeliveryRecord(packet)  # intended, hops, duplicates, TTL drops
        contact = rules._ingress(packet, tally)
        if contact != packet.source:
            compiled.uses_unicast = True  # the contact stage reads routing state
        if contact is None:
            return _FlowTemplate(True, tally.intended, (), 0, 0, 0)
        # Heap entries: (time, seq, switch, came_from, contact, ttl, chain);
        # the contact is set while the packet rides the unicast stage.
        heap: List[tuple] = [(0.0, 0, packet.source, None, contact, rules._hop_limit(), ())]
        seq = 1
        seen: Set[int] = set()
        delivered: Dict[int, Tuple[float, ...]] = {}
        while heap:
            t, _, x, came_from, contact, ttl, chain = heapq.heappop(heap)
            if contact is not None and not rules._on_tree(x, packet):
                hop = rules._unicast_hop(x, contact, tally, ttl)
                if hop is not None:
                    next_hop, cost = hop
                    heapq.heappush(
                        heap, (t + cost, seq, next_hop, None, contact, ttl - 1, chain + (cost,))
                    )
                    seq += 1
                continue
            if x in seen:
                tally.duplicates += 1
                continue
            seen.add(x)
            if rules._delivers(x, packet):
                delivered[x] = chain
            for y, cost, left in rules._tree_hops(x, came_from, packet, tally, ttl):
                heapq.heappush(heap, (t + cost, seq, y, x, None, left, chain + (cost,)))
                seq += 1
        reads = compiled.reads
        reads |= seen
        for x in seen:
            held = self.dgmc.switches[x].states.get(packet.connection_id)
            if held is not None:
                for fragment in held.active_backup.values():
                    reads.update(fragment.path)
        return _FlowTemplate(
            False, tally.intended, tuple(delivered.items()),
            tally.hops, tally.duplicates, tally.ttl_drops,
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
                template = self._template(packet)
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
