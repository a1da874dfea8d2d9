"""Tests for the multicast data plane: per-type delivery semantics.

The second half of the file covers the batched engine: template-stamped
forwarding must be delivery-for-delivery identical to the per-packet
reference engine at every quiescent dispatch point -- unit cases first,
then Hypothesis properties over random topologies, connection types,
membership interleavings, TTL settings, and (with one engine kept across
them) raw link flips and hand-activated backup fragments.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DgmcNetwork,
    JoinEvent,
    LeaveEvent,
    LinkEvent,
    ProtocolConfig,
    Role,
)
from repro.dataplane import BatchForwardingEngine, ForwardingEngine, McPacket
from repro.frr import activate_for_edge
from repro.topo.generators import grid_network, ring_network, waxman_network


def deployment(net=None, ctype="symmetric"):
    dgmc = DgmcNetwork(
        net or ring_network(6), ProtocolConfig(compute_time=0.5, per_hop_delay=0.05)
    )
    if ctype == "symmetric":
        dgmc.register_symmetric(1)
    elif ctype == "receiver-only":
        dgmc.register_receiver_only(1)
    else:
        dgmc.register_asymmetric(1)
    return dgmc


class TestSymmetricDelivery:
    def test_member_to_members(self):
        dgmc = deployment()
        for i, sw in enumerate([0, 2, 4]):
            dgmc.inject(JoinEvent(sw, 1), at=10.0 * (i + 1))
        dgmc.run()
        engine = ForwardingEngine(dgmc)
        record = engine.send(McPacket(0, 1), at=100.0)
        dgmc.run()
        assert record.complete
        assert record.intended == frozenset({0, 2, 4})
        assert set(record.delivered) >= {0, 2, 4}
        assert record.duplicates == 0

    def test_latency_positive_for_remote_members(self):
        dgmc = deployment(net=grid_network(1, 5))
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(4, 1), at=20.0)
        dgmc.run()
        engine = ForwardingEngine(dgmc)
        record = engine.send(McPacket(0, 1), at=100.0)
        dgmc.run()
        assert record.latency(0) == 0.0  # local delivery
        assert record.latency(4) == pytest.approx(4.0)  # 4 unit-delay hops

    def test_every_member_can_send(self, rng):
        net = waxman_network(20, rng)
        dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
        dgmc.register_symmetric(1)
        members = [2, 8, 14, 19]
        for i, sw in enumerate(members):
            dgmc.inject(JoinEvent(sw, 1), at=10.0 * (i + 1))
        dgmc.run()
        engine = ForwardingEngine(dgmc)
        records = [
            engine.send(McPacket(m, 1), at=200.0 + i)
            for i, m in enumerate(members)
        ]
        dgmc.run()
        assert all(r.complete for r in records)

    def test_undeliverable_without_state(self):
        dgmc = deployment()
        engine = ForwardingEngine(dgmc)
        record = engine.send(McPacket(0, 1), at=1.0)
        dgmc.run()
        assert record.undeliverable


class TestReceiverOnlyDelivery:
    def test_two_stage_delivery_from_non_member(self):
        # line 0-1-2-3-4; members at 3 and 4; sender 0 is off-tree.
        dgmc = deployment(net=grid_network(1, 5), ctype="receiver-only")
        dgmc.inject(JoinEvent(3, 1), at=10.0)
        dgmc.inject(JoinEvent(4, 1), at=20.0)
        dgmc.run()
        engine = ForwardingEngine(dgmc)
        record = engine.send(McPacket(0, 1), at=100.0)
        dgmc.run()
        assert record.complete
        assert record.intended == frozenset({3, 4})
        # stage 1 rode unicast 0->1->2->3 (3 hops) + tree hop 3->4
        assert record.hops == 4

    def test_contact_node_is_nearest_member(self):
        dgmc = deployment(net=ring_network(8), ctype="receiver-only")
        dgmc.inject(JoinEvent(2, 1), at=10.0)
        dgmc.inject(JoinEvent(6, 1), at=20.0)
        dgmc.run()
        engine = ForwardingEngine(dgmc)
        record = engine.send(McPacket(1, 1), at=100.0)
        dgmc.run()
        assert record.complete
        # nearest member to 1 on the ring is 2 (1 hop); delivery there first
        assert record.delivered[2] < record.delivered[6]


class TestAsymmetricDelivery:
    def test_sender_tree_reaches_receivers_only(self):
        dgmc = deployment(net=ring_network(6), ctype="asymmetric")
        dgmc.inject(JoinEvent(0, 1, role=Role.SENDER), at=10.0)
        dgmc.inject(JoinEvent(2, 1, role=Role.RECEIVER), at=20.0)
        dgmc.inject(JoinEvent(4, 1, role=Role.RECEIVER), at=30.0)
        dgmc.run()
        engine = ForwardingEngine(dgmc)
        record = engine.send(McPacket(0, 1), at=100.0)
        dgmc.run()
        assert record.intended == frozenset({2, 4})
        assert record.complete
        # the sender itself is not a receiver
        assert 0 not in record.delivered or record.intended != {0}

    def test_non_sender_has_no_tree(self):
        dgmc = deployment(net=ring_network(6), ctype="asymmetric")
        dgmc.inject(JoinEvent(0, 1, role=Role.SENDER), at=10.0)
        dgmc.inject(JoinEvent(2, 1, role=Role.RECEIVER), at=20.0)
        dgmc.run()
        engine = ForwardingEngine(dgmc)
        # switch 4 never joined as sender: no source-rooted tree for it
        record = engine.send(McPacket(4, 1), at=100.0)
        dgmc.run()
        assert record.delivery_ratio < 1.0 or record.undeliverable


class TestChurnDisruption:
    def test_steady_state_is_loss_free(self, rng):
        net = waxman_network(25, rng)
        dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
        dgmc.register_symmetric(1)
        members = [1, 7, 13, 19]
        for i, sw in enumerate(members):
            dgmc.inject(JoinEvent(sw, 1), at=10.0 * (i + 1))
        dgmc.run()
        engine = ForwardingEngine(dgmc)
        for i in range(10):
            engine.send(McPacket(members[i % 4], 1), at=200.0 + 10.0 * i)
        dgmc.run()
        assert engine.report.mean_delivery_ratio == 1.0
        assert engine.report.total_duplicates == 0

    def test_packets_after_link_failure_use_new_tree(self):
        dgmc = deployment(net=ring_network(6))
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(1, 1), at=20.0)
        dgmc.run()
        dgmc.inject(LinkEvent(0, 0, 1, up=False), at=50.0)
        dgmc.run()
        engine = ForwardingEngine(dgmc)
        record = engine.send(McPacket(0, 1), at=100.0)
        dgmc.run()
        assert record.complete
        # the direct link is dead; delivery must take the long way (4 hops)
        assert record.hops >= 4

    def test_mid_reconvergence_packets_reported_not_crashed(self):
        # inject a packet while the join burst is still converging: the
        # engine must account for it (possibly incomplete), never raise.
        dgmc = deployment(net=ring_network(8))
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.run()
        for sw in (2, 4, 6):
            dgmc.inject(JoinEvent(sw, 1), at=100.0)
        engine = ForwardingEngine(dgmc)
        record = engine.send(McPacket(0, 1), at=100.4)
        dgmc.run()
        assert 0.0 <= record.delivery_ratio <= 1.0


class TestTtlGuard:
    def test_ttl_zero_drops_at_source(self):
        dgmc = deployment(net=grid_network(1, 5))
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(4, 1), at=20.0)
        dgmc.run()
        engine = ForwardingEngine(dgmc, ttl=0)
        record = engine.send(McPacket(0, 1), at=100.0)
        dgmc.run()
        # Local delivery still happens; the single eligible out-edge is
        # suppressed and counted exactly once.
        assert set(record.delivered) == {0}
        assert record.ttl_drops == 1
        assert record.hops == 0

    def test_ttl_exhausts_mid_tree(self):
        # line 0-1-2-3-4: reaching 4 takes 4 hops; ttl=2 dies at switch 2.
        dgmc = deployment(net=grid_network(1, 5))
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(4, 1), at=20.0)
        dgmc.run()
        engine = ForwardingEngine(dgmc, ttl=2)
        record = engine.send(McPacket(0, 1), at=100.0)
        dgmc.run()
        assert set(record.delivered) == {0}
        assert record.ttl_drops == 1
        assert record.hops == 2

    def test_ttl_zero_drops_unicast_stage(self):
        dgmc = deployment(net=grid_network(1, 5), ctype="receiver-only")
        dgmc.inject(JoinEvent(3, 1), at=10.0)
        dgmc.inject(JoinEvent(4, 1), at=20.0)
        dgmc.run()
        engine = ForwardingEngine(dgmc, ttl=0)
        record = engine.send(McPacket(0, 1), at=100.0)
        dgmc.run()
        assert not record.delivered
        assert record.ttl_drops == 1

    def test_default_ttl_is_generous(self):
        dgmc = deployment(net=ring_network(6))
        for i, sw in enumerate([0, 2, 4]):
            dgmc.inject(JoinEvent(sw, 1), at=10.0 * (i + 1))
        dgmc.run()
        engine = ForwardingEngine(dgmc)
        record = engine.send(McPacket(0, 1), at=100.0)
        dgmc.run()
        assert record.complete
        assert record.ttl_drops == 0
        assert engine.report.total_ttl_drops == 0


def record_key(record):
    """Every observable field of a delivery record, times included."""
    return (
        record.undeliverable,
        record.intended,
        record.hops,
        record.duplicates,
        record.ttl_drops,
        tuple(sorted(record.delivered.items())),
    )


def assert_batched_matches_reference(dgmc, flows, *, ttl=None, hop_delay=None):
    """Dispatch ``flows`` through both engines at one quiescent point."""
    batched = BatchForwardingEngine(dgmc, hop_delay=hop_delay, ttl=ttl)
    reference = ForwardingEngine(dgmc, hop_delay=hop_delay, ttl=ttl)
    at = dgmc.sim.now + 1.0
    batch_records = batched.dispatch(
        [McPacket(src, m) for src, m in flows], at=at
    )
    ref_records = [
        reference.send(McPacket(src, m), at=at) for src, m in flows
    ]
    dgmc.run()
    for ref, bat in zip(ref_records, batch_records):
        assert record_key(ref) == record_key(bat)
    return batched


class TestBatchedEngine:
    def test_matches_reference_symmetric(self):
        dgmc = deployment()
        for i, sw in enumerate([0, 2, 4]):
            dgmc.inject(JoinEvent(sw, 1), at=10.0 * (i + 1))
        dgmc.run()
        assert_batched_matches_reference(dgmc, [(0, 1), (2, 1), (4, 1)])

    def test_matches_reference_receiver_only(self):
        dgmc = deployment(net=grid_network(1, 5), ctype="receiver-only")
        dgmc.inject(JoinEvent(3, 1), at=10.0)
        dgmc.inject(JoinEvent(4, 1), at=20.0)
        dgmc.run()
        # off-tree senders ride the two-stage unicast path
        assert_batched_matches_reference(dgmc, [(0, 1), (3, 1)])

    def test_matches_reference_asymmetric(self):
        dgmc = deployment(net=ring_network(6), ctype="asymmetric")
        dgmc.inject(JoinEvent(0, 1, role=Role.SENDER), at=10.0)
        dgmc.inject(JoinEvent(2, 1, role=Role.RECEIVER), at=20.0)
        dgmc.inject(JoinEvent(4, 1, role=Role.RECEIVER), at=30.0)
        dgmc.run()
        # sender 0 has a source tree; 4 (receiver role) does not
        assert_batched_matches_reference(dgmc, [(0, 1), (4, 1)])

    def test_matches_reference_with_ttl(self):
        dgmc = deployment(net=grid_network(1, 5))
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(4, 1), at=20.0)
        dgmc.run()
        for ttl in (0, 2, None):
            assert_batched_matches_reference(dgmc, [(0, 1)], ttl=ttl)

    def test_undeliverable_without_state(self):
        dgmc = deployment()
        assert_batched_matches_reference(dgmc, [(0, 1)])

    def test_invalidates_on_membership_install(self):
        dgmc = deployment(net=ring_network(8))
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(2, 1), at=20.0)
        dgmc.run()
        engine = assert_batched_matches_reference(dgmc, [(0, 1)])
        before = engine._template(McPacket(0, 1))
        dgmc.inject(JoinEvent(5, 1), at=dgmc.sim.now + 10.0)
        dgmc.run()
        # the install log advanced: the next dispatch recompiles and the
        # new member appears in the deliveries
        record = engine.dispatch([McPacket(0, 1)], at=dgmc.sim.now + 1.0)[0]
        assert 5 in record.delivered
        assert engine._template(McPacket(0, 1)) is not before

    def test_invalidates_on_link_event(self):
        dgmc = deployment(net=ring_network(6))
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(1, 1), at=20.0)
        dgmc.run()
        engine = assert_batched_matches_reference(dgmc, [(0, 1)])
        dgmc.inject(LinkEvent(0, 0, 1, up=False), at=dgmc.sim.now + 10.0)
        dgmc.run()
        # liveness is baked into the compiled arrays: the Network.version
        # bump must drop them, and the re-dispatch matches the reference
        # on the repaired tree (the long way around the ring)
        assert_batched_matches_reference(dgmc, [(0, 1)])
        record = engine.dispatch([McPacket(0, 1)], at=dgmc.sim.now + 1.0)[0]
        assert record.complete
        assert record.hops >= 4

    def test_explicit_invalidate_recompiles(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(3, 1), at=20.0)
        dgmc.run()
        engine = BatchForwardingEngine(dgmc)
        engine.dispatch([McPacket(0, 1)], at=dgmc.sim.now + 1.0)
        assert engine._compiled
        engine.invalidate()
        assert not engine._compiled
        engine.invalidate(1)  # idempotent on absent state
        assert_batched_matches_reference(dgmc, [(0, 1)])

    def test_dataplane_counters(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(3, 1), at=20.0)
        dgmc.run()
        engine = BatchForwardingEngine(dgmc)
        packets = [McPacket(0, 1) for _ in range(4)]
        engine.dispatch(packets, at=dgmc.sim.now + 1.0)
        samples = dgmc.metrics.snapshot()
        assert samples["dataplane_batches_total"] == 1
        assert samples["dataplane_packets_total"] == 4
        assert samples["dataplane_compiled_connections_total"] == 1
        assert samples["dataplane_template_builds_total"] == 1
        # one build, three same-flow hits
        assert samples["dataplane_template_hits_total"] == 3

    def test_mixed_batch_counters_and_records(self):
        # TestTtlGuard's line 0-1-2-3-4 with ttl=2: connection 1 (members
        # 0, 4) loses its far end to the hop limit; connection 2 (members
        # 1, 2) does not.
        dgmc = deployment(net=grid_network(1, 5))
        dgmc.register_symmetric(2)
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(4, 1), at=20.0)
        dgmc.inject(JoinEvent(1, 2), at=30.0)
        dgmc.inject(JoinEvent(2, 2), at=40.0)
        dgmc.run()
        engine = BatchForwardingEngine(dgmc, ttl=2)
        reference = ForwardingEngine(dgmc, ttl=2)
        engine.dispatch([McPacket(1, 2)], at=dgmc.sim.now + 1.0)  # built earlier
        # (1, 2) hits its earlier template, (0, 1) is TTL-limited, and
        # (2, 2) misses mid-batch, after hits of both other flows.
        flows = [(1, 2), (0, 1), (1, 2), (0, 1), (2, 2), (1, 2), (2, 2), (0, 1)]
        batch = [McPacket(src, m) for src, m in flows]
        at = dgmc.sim.now + 2.0
        records = engine.dispatch(batch, at=at)
        shadow = [reference.send(packet, at=at) for packet in batch]
        dgmc.run()

        samples = dgmc.metrics.snapshot()
        packets = samples["dataplane_packets_total"]
        assert packets == 1 + len(batch)
        assert samples["dataplane_template_builds_total"] == 3
        assert samples["dataplane_template_hits_total"] == (
            packets - samples["dataplane_template_builds_total"])
        assert samples["dataplane_ttl_drops_total"] == sum(
            r.ttl_drops for r in engine.report.records) == 3
        assert len(engine.report.records) == 1 + len(batch)
        assert all(r is s for r, s in zip(engine.report.records[1:], records))
        assert all(r.packet is p for r, p in zip(records, batch))
        for ref, bat in zip(shadow, records):
            assert ref == bat

    def test_batch_dispatch_span_emitted(self):
        from repro.obs.tracer import RingBufferSink, Tracer, use_tracer

        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(3, 1), at=20.0)
        dgmc.run()
        tracer = Tracer(enabled=True)
        sink = RingBufferSink()
        tracer.add_sink(sink)
        with use_tracer(tracer):
            engine = BatchForwardingEngine(dgmc)
            engine.dispatch([McPacket(0, 1)], at=dgmc.sim.now + 1.0)
        names = [e.name for e in sink.events()]
        assert "batch_dispatch" in names

    def test_send_is_single_packet_dispatch(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(3, 1), at=20.0)
        dgmc.run()
        engine = BatchForwardingEngine(dgmc)
        record = engine.send(McPacket(0, 1), at=dgmc.sim.now + 1.0)
        assert record.complete
        assert engine.report.packets == 1


@st.composite
def equivalence_runs(draw):
    """Random topology + churn interleaving + dispatch plan."""
    n = draw(st.integers(5, 14))
    topo_seed = draw(st.integers(0, 4000))
    ctype = draw(
        st.sampled_from(["symmetric", "receiver-only", "asymmetric"])
    )
    steps = draw(st.integers(1, 3))
    churn_seed = draw(st.integers(0, 4000))
    ttl = draw(st.sampled_from([None, None, 0, 3]))
    return n, topo_seed, ctype, steps, churn_seed, ttl


@given(equivalence_runs())
@settings(max_examples=25, deadline=None)
def test_batched_engine_equals_reference_under_churn(run):
    """The PR's core property: at every quiescent point of a random
    churn interleaving, batched records equal reference records field
    for field -- exact delivery timestamps included."""
    n, topo_seed, ctype, steps, churn_seed, ttl = run
    net = waxman_network(n, random.Random(topo_seed))
    dgmc = deployment(net=net, ctype=ctype)
    rng = random.Random(churn_seed)
    members: set[int] = set()
    roles = (
        [Role.SENDER, Role.RECEIVER, Role.BOTH]
        if ctype == "asymmetric"
        else [None]
    )
    for _ in range(steps):
        for _ in range(rng.randint(1, 4)):
            t = dgmc.sim.now + 1.0 + rng.random() * 5.0
            absent = [x for x in range(n) if x not in members]
            if absent and (len(members) < 2 or rng.random() < 0.6):
                sw = rng.choice(absent)
                dgmc.inject(JoinEvent(sw, 1, role=rng.choice(roles)), at=t)
                members.add(sw)
            else:
                sw = rng.choice(sorted(members))
                dgmc.inject(LeaveEvent(sw, 1), at=t)
                members.discard(sw)
        dgmc.run()  # quiesce: the equivalence contract's dispatch point
        sources = rng.sample(range(n), min(n, 4))
        assert_batched_matches_reference(
            dgmc, [(src, 1) for src in sources], ttl=ttl
        )


@st.composite
def reuse_runs(draw):
    """Random topology + a plan mixing churn, raw link flips and FRR."""
    n = draw(st.integers(5, 12))
    topo_seed = draw(st.integers(0, 4000))
    ctype = draw(
        st.sampled_from(["symmetric", "receiver-only", "asymmetric"])
    )
    steps = draw(st.integers(2, 6))
    plan_seed = draw(st.integers(0, 4000))
    frr = draw(st.booleans())
    return n, topo_seed, ctype, steps, plan_seed, frr


@given(reuse_runs())
@settings(max_examples=30, deadline=None)
def test_batched_templates_reused_across_invalidation(run):
    """One batched engine lives through membership churn, raw link flips
    (no protocol reaction) and hand-activated backup fragments; at every
    quiescent point each record equals a fresh reference engine's.  Only
    the engine's own invalidation keeps its templates honest here: a flip
    it fails to attribute to a flow leaves that flow's template stale."""
    n, topo_seed, ctype, steps, plan_seed, frr = run
    net = waxman_network(n, random.Random(topo_seed))
    dgmc = DgmcNetwork(
        net,
        ProtocolConfig(compute_time=0.5, per_hop_delay=0.05, enable_frr=frr),
    )
    {"symmetric": dgmc.register_symmetric,
     "receiver-only": dgmc.register_receiver_only,
     "asymmetric": dgmc.register_asymmetric}[ctype](1)
    batched = BatchForwardingEngine(dgmc)
    rng = random.Random(plan_seed)
    members: set[int] = set()
    roles = (
        [Role.SENDER, Role.RECEIVER, Role.BOTH]
        if ctype == "asymmetric"
        else [None]
    )
    for step in range(steps):
        if step == 0 or len(members) < 2 or rng.random() < 0.4:
            absent = [x for x in range(n) if x not in members]
            if absent and (len(members) < 2 or rng.random() < 0.6):
                sw = rng.choice(absent)
                dgmc.inject(
                    JoinEvent(sw, 1, role=rng.choice(roles)), at=dgmc.sim.now + 1.0
                )
                members.add(sw)
            else:
                sw = rng.choice(sorted(members))
                dgmc.inject(LeaveEvent(sw, 1), at=dgmc.sim.now + 1.0)
                members.discard(sw)
            dgmc.run()
        else:
            # Raw flips, mostly of installed tree edges: one flip is a
            # single-link delta (scoped invalidation), two are a wide gap.
            tree_edges = sorted({
                e
                for s in dgmc.states_for(1).values() if s.installed
                for e in s.installed.all_edges()
            })
            for _ in range(rng.choice([1, 1, 1, 2])):
                if tree_edges and rng.random() < 0.7:
                    u, v = rng.choice(tree_edges)
                else:
                    link = rng.choice(list(net.links(include_down=True)))
                    u, v = link.u, link.v
                up = not net.link(u, v).up
                net.set_link_state(u, v, up=up)
                if frr and not up:
                    for x in (u, v):
                        activate_for_edge(dgmc.switches[x].states, u, v)
        at = dgmc.sim.now + 1.0
        # Members' templates are reused across steps; an off-tree source
        # rides unicast, which makes any later flip drop the connection,
        # so one joins only now and then.
        sources = sorted(members)
        if rng.random() < 0.2:
            sources.append(rng.randrange(n))
        flows = [(src, 1) for src in sources]
        reference = ForwardingEngine(dgmc)
        ref_records = [reference.send(McPacket(src, m), at=at) for src, m in flows]
        batch_records = batched.dispatch(
            [McPacket(src, m) for src, m in flows], at=at
        )
        dgmc.run()
        for ref, bat in zip(ref_records, batch_records):
            assert record_key(ref) == record_key(bat), (step, ref.packet)


class TestReferenceEngineState:
    def test_no_per_packet_state_outlives_the_run(self):
        """Each packet's duplicate-suppression set rides its own hops: once
        the run drains, the engine holds nothing per packet."""
        dgmc = deployment()
        for i, sw in enumerate([0, 2, 4]):
            dgmc.inject(JoinEvent(sw, 1), at=10.0 * (i + 1))
        dgmc.run()
        engine = ForwardingEngine(dgmc)

        def container_sizes():
            return {
                name: len(value) for name, value in vars(engine).items()
                if name != "report" and isinstance(value, (dict, set, list))
            }

        before = container_sizes()
        for i in range(500):
            engine.send(McPacket((0, 2, 4)[i % 3], 1), at=100.0 + i)
        dgmc.run()
        assert engine.report.packets == 500
        assert engine.report.mean_delivery_ratio == 1.0
        assert container_sizes() == before


class TestReport:
    def test_aggregates(self):
        dgmc = deployment()
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(3, 1), at=20.0)
        dgmc.run()
        engine = ForwardingEngine(dgmc)
        for i in range(3):
            engine.send(McPacket(0, 1), at=100.0 + i)
        dgmc.run()
        report = engine.report
        assert report.packets == 3
        assert report.complete_deliveries == 3
        assert report.mean_delivery_ratio == 1.0
        assert report.total_hops > 0

    def test_fixed_hop_delay(self):
        dgmc = deployment(net=grid_network(1, 3))
        dgmc.inject(JoinEvent(0, 1), at=10.0)
        dgmc.inject(JoinEvent(2, 1), at=20.0)
        dgmc.run()
        engine = ForwardingEngine(dgmc, hop_delay=5.0)
        record = engine.send(McPacket(0, 1), at=100.0)
        dgmc.run()
        assert record.latency(2) == pytest.approx(10.0)
