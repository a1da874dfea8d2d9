"""Tests for fast reroute: DAGs, backup fragments, activation, gates.

Covers the `repro.frr` subsystem end to end (see docs/fast-reroute.md):
next-hop DAG extraction (ECMP + loop-free alternates), backup-plan
computation (bridges uncovered, detours loop-free), detection-time
activation and repair-cycle retirement, the zero-blackhole-window
property both forwarding engines must provide, the batched engine's
scoped invalidation, the SNAP wire extension, resync adoption, the
jittered hello watchdog, and the stress-mode state-space isomorphism
(backup state must be canonically invisible).
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    DgmcNetwork,
    JoinEvent,
    LinkEvent,
    ProtocolConfig,
)
from repro.core.switch import install_class
from repro.core.wire import encode_topology
from repro.dataplane import BatchForwardingEngine, ForwardingEngine, McPacket
from repro.frr import (
    BackupFragment,
    BackupPlan,
    activate_for_edge,
    compute_backup_plan,
    detour_delay,
    detour_is_live,
)
from repro.frr.backup import _detour
from repro.lsr import spf
from repro.lsr.spfcache import GLOBAL_STATS
from repro.net import frames
from repro.stress.explore import StressOptions, explore
from repro.topo.generators import grid_network, ring_network, waxman_network
from repro.trees.base import McTopology, MulticastTree, path_union
from repro.workloads.stress import get_scenario
from tests.stamps import S


def frr_deployment(net=None, members=(0, 2, 4), enable_frr=True, compute_time=0.5):
    dgmc = DgmcNetwork(
        net or ring_network(6),
        ProtocolConfig(
            compute_time=compute_time, per_hop_delay=0.05, enable_frr=enable_frr
        ),
    )
    dgmc.register_symmetric(1)
    for i, sw in enumerate(members):
        dgmc.inject(JoinEvent(sw, 1), at=10.0 * (i + 1))
    dgmc.run()
    return dgmc


def topology_blob(dgmc, m=1) -> bytes:
    snapshot = []
    for x, state in sorted(dgmc.states_for(m).items()):
        edges = sorted(state.installed.all_edges()) if state.installed else []
        members = sorted((sw, sorted(r)) for sw, r in state.members.items())
        snapshot.append((x, edges, members))
    return repr(snapshot).encode()


class TestNextHopDag:
    def test_ecmp_keeps_both_ring_directions(self):
        net = ring_network(4)
        dag = spf.next_hop_dag(net.spf_view(), 0)
        # 0 -> 2 is distance 2 via either neighbor: both are ECMP hops.
        assert dag[2] == (1, 3)

    def test_equal_distance_neighbor_is_not_an_alternate(self):
        # Triangle: from 0 toward 2, neighbor 1 is at the same distance
        # from 2 as we are (1 == 1) -- neither ECMP (1 + 1 != 1) nor
        # strictly downstream, so it must be excluded.
        net = ring_network(3)
        dag = spf.next_hop_dag(net.spf_view(), 0)
        assert dag[2] == (2,)

    def test_downstream_criterion_everywhere(self, rng):
        """Every DAG hop is ECMP or strictly closer to the destination."""
        net = waxman_network(12, rng)
        view = net.spf_view()
        for source in range(net.n):
            dist_s, _ = spf.dijkstra(view, source)
            dag = spf.next_hop_dag(view, source)
            for dest, hops in dag.items():
                assert hops, f"reachable {dest} has no next hop"
                for n in hops:
                    w = net.spf_view().get(source, {})[n]
                    dn = spf.dijkstra(view, n)[0][dest]
                    assert dist_s[dest] == w + dn or dn < dist_s[dest]

    def test_cached_dag_matches_uncached(self, rng):
        net = waxman_network(10, rng)
        raw = {
            u: dict(nbrs) for u, nbrs in net.spf_view().items()
        }
        for source in range(net.n):
            assert spf.next_hop_dag(net.spf_view(), source) == spf.dag_body(
                raw, source
            )


def plain_image(net):
    """The up-link network as a plain dict: SPF walks the dict core."""
    return {u: dict(nbrs) for u, nbrs in net.spf_view().items()}


class TestBackupPlan:
    image = staticmethod(plain_image)

    def test_ring_edges_all_covered(self):
        net = ring_network(6)
        topo = McTopology.shared(
            MulticastTree.build([(0, 1), (1, 2)], [0, 2])
        )
        plan = compute_backup_plan(topo, self.image(net), 1)
        assert not plan.uncovered
        for u, v in topo.all_edges():
            fragment = plan.fragment_for(u, v)
            assert fragment is not None
            assert fragment.path[0] == u and fragment.path[-1] == v
            # The detour avoids the protected edge and never loops.
            assert (u, v) not in spf.path_edges(list(fragment.path))
            assert len(set(fragment.path)) == len(fragment.path)

    def test_bridge_edges_are_uncovered(self):
        net = grid_network(1, 4)  # a line: every edge is a bridge
        topo = McTopology.shared(
            MulticastTree.build([(0, 1), (1, 2)], [0, 2])
        )
        plan = compute_backup_plan(topo, self.image(net), 1)
        assert plan.fragments == ()
        assert plan.uncovered == ((0, 1), (1, 2))

    def test_plan_partitions_tree_edges(self, rng):
        net = waxman_network(16, rng)
        dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
        dgmc.register_symmetric(1)
        for i, sw in enumerate(sorted(rng.sample(range(16), 5))):
            dgmc.inject(JoinEvent(sw, 1), at=10.0 * (i + 1))
        dgmc.run()
        state = next(iter(dgmc.states_for(1).values()))
        edges = set(state.installed.all_edges())
        image = self.image(net)
        plans = {x: compute_backup_plan(state.installed, image, x) for x in range(16)}
        # Each switch holds exactly its incident edges, so every tree
        # edge is accounted for twice: once at either endpoint.
        for x, plan in plans.items():
            held = {f.edge for f in plan.fragments} | set(plan.uncovered)
            assert held == {e for e in edges if x in e}
        assert sum(
            len(plan.fragments) + len(plan.uncovered) for plan in plans.values()
        ) == 2 * len(edges)

    def test_fragment_orientation_and_delay(self):
        fragment = BackupFragment(edge=(0, 3), path=(0, 1, 2, 3), cost=3.0)
        assert fragment.span == 3
        assert fragment.path_from(3) == (3, 2, 1, 0)
        with pytest.raises(ValueError):
            fragment.path_from(1)
        assert detour_delay(fragment, 0, lambda a, b: 0.5) == pytest.approx(1.5)


def oracle_plans(topology, image, switches):
    """Per-switch plans cut from the whole-tree planner this repo used to
    run at every switch: ``_detour`` over every sorted tree edge, then
    restricted to the edges incident to each switch."""
    whole = {edge: _detour(image, *edge) for edge in sorted(topology.all_edges())}
    return {
        x: BackupPlan(
            fragments=tuple(f for e, f in whole.items() if x in e and f is not None),
            uncovered=tuple(e for e, f in whole.items() if x in e and f is None),
        )
        for x in switches
    }


class TestEndpointLocalPlans:
    """A switch plans exactly the detours it can activate (its incident
    tree edges), each identical to the whole-tree planner's fragment."""

    def deployment(self, n, seed):
        rng = random.Random(seed)
        net = waxman_network(n, rng)
        members = sorted(rng.sample(range(n), rng.randint(3, 8)))
        return frr_deployment(net, members=members), members

    def assert_endpoint_local(self, dgmc, image):
        """``image``: the network as of the last install (plans are as
        old as that), as a plain dict -- the oracle walks the dict core."""
        states = dgmc.states_for(1)
        topology = next(iter(states.values())).installed
        tree = topology.all_edges()
        assert tree
        expected = oracle_plans(topology, image, states)
        total = 0
        for x, state in states.items():
            plan = state.backup_plan
            assert plan == expected[x], x
            total += len(plan.fragments) + len(plan.uncovered)
            if not any(x in edge for edge in tree):
                assert plan == BackupPlan()
        assert total == 2 * len(tree)
        for u, v in tree:
            assert states[u].backup_plan.fragment_for(u, v) == states[
                v
            ].backup_plan.fragment_for(u, v)

    def test_endpoints_hold_one_fragment_object(self):
        """Both endpoints plan on images of one content, so the second
        reads the detour the first computed (the image's detour memo)."""
        for seed in range(3):
            dgmc, _ = self.deployment(24, seed)
            states = dgmc.states_for(1)
            tree = next(iter(states.values())).installed.all_edges()
            covered = 0
            for u, v in tree:
                fragment = states[u].backup_plan.fragment_for(u, v)
                assert fragment is states[v].backup_plan.fragment_for(u, v)
                covered += fragment is not None
            assert covered

    @pytest.mark.parametrize("n", [16, 24, 40])
    def test_plans_match_the_whole_tree_oracle(self, n):
        for seed in range(5):
            dgmc, members = self.deployment(n, seed)
            self.assert_endpoint_local(dgmc, plain_image(dgmc.net))
            # One fail -> repair -> heal cycle of a protected edge.
            holder = dgmc.states_for(1)[members[0]]
            u, v = holder.backup_plan.fragments[0].edge
            computations = len(dgmc.computation_log)
            dgmc.inject(LinkEvent(u, u, v, up=False), at=dgmc.sim.now + 1.0)
            dgmc.run()
            repaired = plain_image(dgmc.net)
            self.assert_endpoint_local(dgmc, repaired)
            # The two link-down LSAs discarded every switch's image;
            # the repair install rebuilt it only where it planned.
            tree = holder.installed.all_edges()
            idle = set(dgmc.switches) - {x for edge in tree for x in edge}
            idle -= {r.switch for r in dgmc.computation_log[computations:]}
            assert idle
            for x in idle:
                assert dgmc.routers[x].lsdb._image is None
            installs = len(dgmc.install_log)
            dgmc.inject(LinkEvent(u, u, v, up=True), at=dgmc.sim.now + 1.0)
            dgmc.run()
            # The heal reinstalls nothing, so every plan still dates
            # from the repair: computed without the restored link.
            assert len(dgmc.install_log) == installs
            self.assert_endpoint_local(dgmc, repaired)

    def test_off_tree_install_does_no_frr_work(self, rng, monkeypatch):
        """An install at a switch no tree edge touches stores the empty
        plan without reading its image or running any SPF."""
        dgmc = frr_deployment(waxman_network(24, rng), members=(1, 9, 17))
        tree = dgmc.states_for(1)[1].installed.all_edges()
        x = next(
            x for x in sorted(dgmc.switches)
            if not any(x in edge for edge in tree)
        )
        switch, state = dgmc.switches[x], dgmc.switches[x].states[1]

        def no_image():
            raise AssertionError("an off-tree switch read its network image")

        monkeypatch.setattr(switch.router, "network_image", no_image)
        before = (
            GLOBAL_STATS.hits, GLOBAL_STATS.misses, spf.RUN_COUNTER.count,
        )
        install_class(
            [state], state.installed, state.current_stamp, state.current_proposer
        )
        assert state.backup_plan == BackupPlan()
        assert before == (
            GLOBAL_STATS.hits, GLOBAL_STATS.misses, spf.RUN_COUNTER.count,
        )


class TestDetourOracle:
    """A detour with no loop-free-alternate tail is the shortest path of
    the image with the protected edge masked out, as the counted oracle
    finds it on an explicitly masked plain copy."""

    @staticmethod
    def flapped(seed):
        """A seeded Waxman network with about an eighth of its links down."""
        rng = random.Random(seed)
        net = waxman_network(rng.choice((12, 20, 30)), rng)
        links = sorted(link.key for link in net.links())
        for key in rng.sample(links, len(links) // 8 + 1):
            net.set_link_state(*key, up=False)
        return net

    @pytest.mark.parametrize("cached", [True, False])
    def test_masked_detours_match_the_oracle(self, cached):
        searched = tails = 0
        for seed in range(12):
            net = self.flapped(seed)
            plain = plain_image(net)
            image = net.spf_view() if cached else plain
            for u, v in sorted(link.key for link in net.links()):
                fragment = _detour(image, u, v)
                dag = spf.next_hop_dag(plain, u)
                alternates = [n for n in dag.get(v, ()) if n != v]
                if alternates:
                    tail = spf.shortest_path(plain, alternates[0], v)
                    if tail is not None and u not in tail:
                        tails += 1
                        assert fragment.path == (u, *tail)
                        continue
                masked = {x: dict(row) for x, row in plain.items()}
                del masked[u][v], masked[v][u]
                dist, parent = spf.dijkstra_uncached(masked, u)
                if v not in dist:
                    assert fragment is None
                    continue
                searched += 1
                # Dijkstra sums a path's weights source to target, as the
                # fragment's cost does.
                assert fragment == BackupFragment(
                    edge=(u, v), path=tuple(spf.path_to(parent, v)), cost=dist[v]
                )
        assert searched and tails

    def test_a_plan_over_memoised_dags_runs_no_dijkstra(self):
        for seed in range(6):
            net = self.flapped(seed)
            image = net.spf_view()
            dist, parent = spf.dijkstra(image, 0)
            tree = MulticastTree.build(path_union(parent, sorted(dist)), dist)
            topology = McTopology.shared(tree)
            for x in image:
                spf.next_hop_dag(image, x)
            before = spf.RUN_COUNTER.count
            plans = [compute_backup_plan(topology, image, x) for x in image]
            assert spf.RUN_COUNTER.count == before
            assert any(plan.fragments for plan in plans)


class TestActivationLifecycle:
    def test_install_precomputes_plan(self):
        """Every switch holds a plan; it covers an installed edge iff the
        switch is one of its endpoints (every ring edge has a detour)."""
        dgmc = frr_deployment()
        for x, state in dgmc.states_for(1).items():
            assert state.backup_plan is not None
            assert state.installed.all_edges()
            for u, v in state.installed.all_edges():
                assert state.backup_plan.covers(u, v) == (x in (u, v))

    def test_frr_off_keeps_no_plan(self):
        dgmc = frr_deployment(enable_frr=False)
        for state in dgmc.states_for(1).values():
            assert state.backup_plan is None
            assert state.active_backup == {}

    def test_failure_activates_and_install_retires(self):
        dgmc = frr_deployment(compute_time=2.0)
        state = dgmc.states_for(1)[0]
        u, v = sorted(state.installed.all_edges())[0]
        dgmc.inject(LinkEvent(u, u, v, up=False), at=dgmc.sim.now + 1.0)
        dgmc.run()
        # Repair has converged: the fragment was retired by the install
        # and the plan recomputed against the new topology.
        for x in (u, v):
            st = dgmc.states_for(1)[x]
            assert st.active_backup == {}
            assert st.backup_plan is not None
            assert (u, v) not in st.installed.all_edges()
        agreed, detail = dgmc.agreement(1)
        assert agreed, detail

    def test_activate_for_edge_is_idempotent(self):
        dgmc = frr_deployment()
        state = dgmc.states_for(1)[0]
        u, v = sorted(state.installed.all_edges())[0]
        dgmc.net.set_link_state(u, v, up=False)
        states = dgmc.switches[u].states
        assert activate_for_edge(states, u, v) == [1]
        assert activate_for_edge(states, u, v) == []  # already active
        assert (u, v) in states[1].active_backup

    def test_reconciliation_is_byte_identical(self):
        """A run that activated FRR converges like one that never did."""
        blobs = []
        for enable_frr in (True, False):
            dgmc = frr_deployment(enable_frr=enable_frr, compute_time=2.0)
            state = dgmc.states_for(1)[0]
            u, v = sorted(state.installed.all_edges())[0]
            t0 = dgmc.sim.now + 1.0
            dgmc.inject(LinkEvent(u, u, v, up=False), at=t0)
            dgmc.run()
            dgmc.inject(LinkEvent(u, u, v, up=True), at=dgmc.sim.now + 1.0)
            dgmc.run()
            agreed, detail = dgmc.agreement(1)
            assert agreed, detail
            blobs.append(topology_blob(dgmc))
        assert blobs[0] == blobs[1]


class TestZeroBlackholeWindow:
    def window_losses(self, enable_frr):
        # Tc = 2.0 keeps the detection->reinstall window open past every
        # probe; hop_delay = 0.01 keeps each probe's whole flight inside
        # it (uniform pre-failure topology at every hop).
        dgmc = frr_deployment(compute_time=2.0)
        if not enable_frr:
            dgmc = frr_deployment(enable_frr=False, compute_time=2.0)
        engine = ForwardingEngine(dgmc, hop_delay=0.01)
        state = dgmc.states_for(1)[0]
        u, v = sorted(state.installed.all_edges())[0]
        t0 = dgmc.sim.now + 1.0
        dgmc.inject(LinkEvent(u, u, v, up=False), at=t0)
        records = [
            engine.send(McPacket(0, 1), at=t0 + 0.1 + 0.1 * k)
            for k in range(10)
        ]
        dgmc.run()
        return records

    def test_frr_on_loses_nothing_in_window(self):
        records = self.window_losses(enable_frr=True)
        assert all(r.complete for r in records)

    def test_frr_off_blackholes_the_window(self):
        records = self.window_losses(enable_frr=False)
        assert any(not r.complete for r in records)


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


class TestEngineEquivalenceWithBackups:
    def activated_deployment(self):
        """A quiescent deployment with a dead tree edge and live backups."""
        dgmc = frr_deployment()
        state = dgmc.states_for(1)[0]
        u, v = sorted(state.installed.all_edges())[0]
        dgmc.net.set_link_state(u, v, up=False)
        for x in (u, v):
            assert activate_for_edge(dgmc.switches[x].states, u, v) == [1]
        return dgmc, (u, v)

    def test_batched_matches_reference_on_detour(self):
        dgmc, _ = self.activated_deployment()
        batched = BatchForwardingEngine(dgmc, hop_delay=0.05)
        reference = ForwardingEngine(dgmc, hop_delay=0.05)
        at = dgmc.sim.now + 1.0
        flows = [(m, 1) for m in (0, 2, 4)]
        batch_records = batched.dispatch(
            [McPacket(src, m) for src, m in flows], at=at
        )
        ref_records = [
            reference.send(McPacket(src, m), at=at) for src, m in flows
        ]
        dgmc.run()
        for ref, bat in zip(ref_records, batch_records):
            assert record_key(ref) == record_key(bat)
        assert all(r.complete for r in ref_records)

    def test_dead_detour_is_not_nested(self):
        """A failure on the detour itself drops the packet (no re-protect)."""
        dgmc, (u, v) = self.activated_deployment()
        fragment = dgmc.switches[u].states[1].active_backup[(u, v)]
        a, b = fragment.path[0], fragment.path[1]
        dgmc.net.set_link_state(a, b, up=False)
        assert not detour_is_live(fragment, dgmc.net)
        engine = ForwardingEngine(dgmc, hop_delay=0.05)
        record = engine.send(McPacket(0, 1), at=dgmc.sim.now + 1.0)
        dgmc.run()
        assert not record.complete


class TestScopedInvalidation:
    def two_group_deployment(self):
        dgmc = DgmcNetwork(
            ring_network(8),
            ProtocolConfig(compute_time=0.5, per_hop_delay=0.05, enable_frr=True),
        )
        dgmc.register_symmetric(1)
        dgmc.register_symmetric(2)
        for i, (sw, m) in enumerate([(0, 1), (1, 1), (4, 2), (5, 2)]):
            dgmc.inject(JoinEvent(sw, m), at=10.0 * (i + 1))
        dgmc.run()
        return dgmc

    def test_unrelated_link_flip_recompiles_nothing(self):
        dgmc = self.two_group_deployment()
        engine = BatchForwardingEngine(dgmc, hop_delay=0.05)
        engine.dispatch([McPacket(0, 1), McPacket(4, 2)], at=dgmc.sim.now + 1.0)
        compiled = dict(engine._compiled)
        assert set(compiled) == {1, 2}
        # (2, 3) is on neither installed tree and no template rode unicast.
        dgmc.net.set_link_state(2, 3, up=False)
        before = dgmc.metrics.snapshot()
        engine.dispatch([McPacket(0, 1), McPacket(4, 2)], at=dgmc.sim.now + 2.0)
        after = dgmc.metrics.snapshot()
        assert engine._compiled[1] is compiled[1]
        assert engine._compiled[2] is compiled[2]
        delta = after["dataplane_partial_invalidations_total"] - before.get(
            "dataplane_partial_invalidations_total", 0
        )
        assert delta == 1  # the scoped pass ran; nothing was dropped

    def test_backup_activation_recompiles_only_its_group(self):
        dgmc = self.two_group_deployment()
        engine = BatchForwardingEngine(dgmc, hop_delay=0.05)
        first = engine.dispatch(
            [McPacket(0, 1), McPacket(4, 2)], at=dgmc.sim.now + 1.0
        )
        assert all(r.complete for r in first)
        compiled = dict(engine._compiled)
        # Fail group 1's tree edge and activate its fragment by hand (no
        # protocol events: the engine must notice via delta + frr_epoch).
        state = dgmc.states_for(1)[0]
        u, v = sorted(state.installed.all_edges())[0]
        dgmc.net.set_link_state(u, v, up=False)
        for x in (u, v):
            activate_for_edge(dgmc.switches[x].states, u, v)
        before = dgmc.metrics.snapshot()
        records = engine.dispatch(
            [McPacket(0, 1), McPacket(4, 2)], at=dgmc.sim.now + 2.0
        )
        after = dgmc.metrics.snapshot()
        # Group 1 recompiled (and rides the detour); group 2 untouched.
        assert all(r.complete for r in records)
        assert engine._compiled[1] is not compiled[1]
        assert engine._compiled[2] is compiled[2]
        assert (
            after["dataplane_invalidations_total"]
            - before.get("dataplane_invalidations_total", 0)
            == 1
        )
        assert (
            after["dataplane_partial_invalidations_total"]
            - before.get("dataplane_partial_invalidations_total", 0)
            >= 1
        )


    def test_detour_link_flip_recompiles_its_group(self):
        """A walk that rode a detour read the detour's links: a flip there
        drops that group even though no switch it visited touches it."""
        dgmc = self.two_group_deployment()
        engine = BatchForwardingEngine(dgmc, hop_delay=0.05)
        u, v = sorted(dgmc.states_for(1)[0].installed.all_edges())[0]
        dgmc.net.set_link_state(u, v, up=False)
        for x in (u, v):
            activate_for_edge(dgmc.switches[x].states, u, v)
        first = engine.dispatch(
            [McPacket(0, 1), McPacket(4, 2)], at=dgmc.sim.now + 1.0
        )
        assert all(r.complete for r in first)
        fragment = dgmc.switches[u].states[1].active_backup[(u, v)]
        assert (u, v) == (0, 1) and {6, 7} <= set(fragment.path)
        compiled = dict(engine._compiled)
        dgmc.net.set_link_state(6, 7, up=False)  # interior detour link
        at = dgmc.sim.now + 2.0
        records = engine.dispatch([McPacket(0, 1), McPacket(4, 2)], at=at)
        assert engine._compiled[1] is not compiled[1]
        assert engine._compiled[2] is compiled[2]
        reference = ForwardingEngine(dgmc, hop_delay=0.05)
        ref_records = [reference.send(McPacket(src, 1 if src == 0 else 2), at=at)
                       for src in (0, 4)]
        dgmc.run()
        assert [record_key(r) for r in records] == [record_key(r) for r in ref_records]
        assert not records[0].complete  # no nested FRR on a dead detour


class TestSnapWireFormat:
    def snapshot(self, active_backup=()):
        topo = McTopology.shared(MulticastTree.build([(0, 1), (1, 2)], [0, 2]))
        return frames.McSnapshot(
            connection_id=7,
            received=S(1, 0, 2, 1),
            expected=S(1, 0, 2, 1),
            current=S(1, 0, 1, 1),
            proposer=2,
            member_stamp=S(1, 0, 2, 1),
            members=(
                (0, frozenset({"sender", "receiver"})),
                (2, frozenset({"receiver"})),
            ),
            topology=encode_topology(topo),
            active_backup=active_backup,
        )

    def test_roundtrip_with_active_backup(self):
        snap = self.snapshot(active_backup=((0, 1, (0, 3, 1)), (1, 2, (1, 3, 2))))
        frame = frames.decode_frame(frames.encode_snap(3, 8, 11, snap))
        assert frame == frames.SnapFrame(3, 8, 11, snap)
        assert frame.snapshot.active_backup == snap.active_backup

    def test_roundtrip_without_backups_is_unchanged(self):
        snap = self.snapshot()
        assert frames.decode_frame(frames.encode_snap(3, 8, 11, snap)) == (
            frames.SnapFrame(3, 8, 11, snap)
        )


class TestResyncAdoption:
    def test_snapshot_carries_and_peer_adopts(self):
        dgmc = frr_deployment()
        state = dgmc.states_for(1)[0]
        u, v = sorted(state.installed.all_edges())[0]
        dgmc.net.set_link_state(u, v, up=False)
        activate_for_edge(dgmc.switches[u].states, u, v)
        snap = dgmc.switches[u].capture_resync_snapshot(1)
        assert snap.active_backup and snap.active_backup[0][:2] == (u, v)
        # The far endpoint missed its own activation window: it adopts.
        peer = dgmc.switches[v]
        assert peer.states[1].active_backup == {}
        assert peer.apply_resync_snapshot(snap) is True
        adopted = peer.states[1].active_backup[(u, v)]
        assert adopted.path == snap.active_backup[0][2]
        # Idempotent: re-applying the same snapshot changes nothing.
        assert peer.apply_resync_snapshot(snap) is False
        # A third switch can never hold a packet at (u, v): merging the
        # same snapshot leaves it no fragment and no data-plane recompile.
        bystander = dgmc.switches[
            next(x for x in sorted(dgmc.switches) if x not in (u, v))
        ]
        epoch = bystander.states[1].frr_epoch
        assert bystander.apply_resync_snapshot(snap) is False
        assert bystander.states[1].active_backup == {}
        assert bystander.states[1].frr_epoch == epoch

    def test_frr_off_peer_ignores_backups(self):
        dgmc_on = frr_deployment()
        state = dgmc_on.states_for(1)[0]
        u, v = sorted(state.installed.all_edges())[0]
        dgmc_on.net.set_link_state(u, v, up=False)
        activate_for_edge(dgmc_on.switches[u].states, u, v)
        snap = dgmc_on.switches[u].capture_resync_snapshot(1)
        dgmc_off = frr_deployment(enable_frr=False)
        peer = dgmc_off.switches[0]
        peer.apply_resync_snapshot(snap)
        assert peer.states[1].active_backup == {}


class _JitterHost:
    def __init__(self, switch_id, hello_interval=0.05):
        self.switch_id = switch_id
        self.hello_interval = hello_interval


class TestWatchdogJitter:
    def test_jitter_is_deterministic_and_bounded(self):
        from repro.net.resync import ResyncManager

        mgr = ResyncManager.__new__(ResyncManager)
        mgr.host = _JitterHost(3)
        values = [mgr._dead_jitter(nbr) for nbr in range(32)]
        assert values == [mgr._dead_jitter(nbr) for nbr in range(32)]
        assert all(0.0 <= j < 0.5 * 0.05 for j in values)
        assert len(set(values)) > 1  # neighbors do not expire in lockstep

    def test_jitter_differs_across_hosts(self):
        from repro.net.resync import ResyncManager

        seen = set()
        for switch_id in range(8):
            mgr = ResyncManager.__new__(ResyncManager)
            mgr.host = _JitterHost(switch_id)
            seen.add(round(mgr._dead_jitter(0), 9))
        assert len(seen) > 1

    def test_race_minimization_stays_deterministic(self):
        """Pinned-seed ablated race still shrinks to the same schedule."""
        from repro.stress.model import describe_step

        schedules = []
        for _ in range(2):
            report = explore(
                get_scenario("membership-race"),
                StressOptions(config_overrides={"ablate_member_stamp": True}),
            )
            assert not report.ok
            ce = report.counterexamples[0]
            assert ce.minimized
            schedules.append([describe_step(s) for s in ce.schedule])
        assert schedules[0] == schedules[1]


class TestStressComposition:
    def test_frr_inflight_repair_state_space_is_isomorphic(self):
        """FRR on/off explore the same canonical space, violation-free."""
        scenario = get_scenario("frr-inflight-repair")
        budget = 30_000
        off = explore(scenario, StressOptions(max_transitions=budget))
        on = explore(
            scenario,
            StressOptions(
                max_transitions=budget,
                config_overrides={"enable_frr": True},
            ),
        )
        assert off.ok, [ce.detail for ce in off.counterexamples]
        assert on.ok, [ce.detail for ce in on.counterexamples]
        assert on.states_explored == off.states_explored
        assert on.terminal_states == off.terminal_states
        assert on.transitions == off.transitions
