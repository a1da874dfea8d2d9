"""Crash-recovery tests: hello failure detection, resync, partitions.

The acceptance bar of the robustness layer: a crashed-and-cold-restarted
switch rebuilds a complete LSDB and rejoins MC arbitration through the
resync protocol alone (``seed_converged_lsdb`` is never called after
boot), and a healed partition reconverges on members and trees --
including membership events the partition swallowed.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.events import JoinEvent
from repro.core.protocol import ProtocolConfig
from repro.lsr.lsa import RouterLsa
from repro.lsr.lsdb import LinkStateDatabase
from repro.net import frames
from repro.net.fabric import LiveConfig, LiveFabric, QuiescenceTimeout
from repro.net.faults import FaultPlan
from repro.net.resync import ResyncManager
from repro.net.transport import RetransmitPolicy
from repro.topo.generators import grid_network, ring_network


def fast_config(**kw) -> LiveConfig:
    defaults = dict(
        policy=RetransmitPolicy(rto=0.01, rto_max=0.1, max_attempts=8),
        hello_interval=0.05,
        dead_interval=0.3,
        quiesce_timeout=30.0,
    )
    defaults.update(kw)
    return LiveConfig(**defaults)


async def settle(fabric: LiveFabric, seconds: float) -> None:
    await asyncio.sleep(seconds)
    await fabric.quiesce()


class TestHelloFailureDetection:
    def test_crash_is_detected_and_fires_link_down(self):
        async def run():
            fab = LiveFabric(grid_network(1, 3), ProtocolConfig(), fast_config())
            fab.register_symmetric(1)
            await fab.start()
            try:
                fab.hosts[0].fire_membership(JoinEvent(0, 1))
                await fab.quiesce()
                fab.hosts[2].fire_membership(JoinEvent(2, 1))
                await fab.quiesce()
                await fab.crash(2)
                await settle(fab, 0.5)  # > dead_interval of hello silence
                link_down_at_1 = not fab.hosts[1].net.link(1, 2).up
                tree = fab.hosts[0].states[1].installed.shared_tree
                return fab.counters(), link_down_at_1, tree
            finally:
                await fab.shutdown()

        counters, link_down_at_1, tree = asyncio.run(run())
        assert counters["hello_neighbors_declared_dead_total"] >= 1
        # The physical neighbor ran its local Figure 2 reaction ...
        assert link_down_at_1
        # ... and the survivors' tree dropped the unreachable member.
        assert 2 not in tree.members

    def test_no_hellos_without_interval(self):
        """hello_interval=0 keeps the pre-resync behaviour: silence."""

        async def run():
            fab = LiveFabric(grid_network(1, 3), ProtocolConfig(), LiveConfig())
            fab.register_symmetric(1)
            await fab.start()
            try:
                fab.hosts[0].fire_membership(JoinEvent(0, 1))
                await fab.quiesce()
                await asyncio.sleep(0.2)
                return fab.counters()
            finally:
                await fab.shutdown()

        counters = asyncio.run(run())
        assert counters["live_hellos_sent_total"] == 0


class TestCrashRestart:
    def test_restart_rebuilds_lsdb_via_resync_alone(self):
        """The acceptance criterion: cold boot + resync = full LSDB."""

        async def run():
            fab = LiveFabric(ring_network(5), ProtocolConfig(), fast_config())
            fab.register_symmetric(1)
            await fab.start()
            try:
                for member in (0, 2, 4):
                    fab.hosts[member].fire_membership(JoinEvent(member, 1))
                    await fab.quiesce()
                await fab.crash(2)
                await settle(fab, 0.5)
                await fab.restart(2)
                await settle(fab, 0.4)
                await settle(fab, 0.4)
                host = fab.hosts[2]
                return (
                    fab.generations[2],
                    host.router.lsdb.complete(),
                    host.router.lsdb.headers(),
                    dict(host.states[1].members) if 1 in host.states else None,
                    fab.agreement(1),
                    fab.counters(),
                )
            finally:
                await fab.shutdown()

        generation, complete, headers, members, (ok, detail), counters = asyncio.run(
            run()
        )
        assert generation == 2
        # Full LSDB, rebuilt with no seed_converged_lsdb after boot.
        assert complete
        assert set(headers) == {0, 1, 2, 3, 4}
        # The restarted switch recovered its own membership from peers.
        assert members is not None and 2 in members
        assert ok, detail
        assert counters["resync_dbd_sent_total"] >= 1
        assert counters["resync_snapshots_applied_total"] >= 1

    def test_restart_recovers_own_seqnum(self):
        """Peers hold the pre-crash LSA; the new incarnation must jump it."""

        async def run():
            fab = LiveFabric(ring_network(4), ProtocolConfig(), fast_config())
            fab.register_symmetric(1)
            await fab.start()
            try:
                fab.hosts[0].fire_membership(JoinEvent(0, 1))
                await fab.quiesce()
                await fab.crash(3)
                await settle(fab, 0.5)
                await fab.restart(3)
                await settle(fab, 0.4)
                return fab.hosts[3].router.seqnum, fab.counters()
            finally:
                await fab.shutdown()

        seqnum, counters = asyncio.run(run())
        assert counters["resync_seqnum_recoveries_total"] >= 1
        # Strictly newer than the generation-1 boot origination.
        assert seqnum >= 2

    def test_crash_guards(self):
        async def run():
            fab = LiveFabric(grid_network(1, 3), ProtocolConfig(), fast_config())
            fab.register_symmetric(1)
            await fab.start()
            try:
                with pytest.raises(ValueError, match="not crashed"):
                    await fab.restart(0)
                await fab.crash(0)
                with pytest.raises(ValueError, match="not live"):
                    await fab.crash(0)
            finally:
                await fab.shutdown()

        asyncio.run(run())


class TestPartitionHeal:
    def test_heal_reconverges_membership_and_trees(self):
        """A join the partition swallowed must propagate after the heal."""

        async def run():
            fab = LiveFabric(grid_network(1, 4), ProtocolConfig(), fast_config())
            fab.register_symmetric(1)
            await fab.start()
            try:
                fab.hosts[0].fire_membership(JoinEvent(0, 1))
                await fab.quiesce()
                fab.hosts[3].fire_membership(JoinEvent(3, 1))
                await fab.quiesce()
                fab.partition([[0, 1], [2, 3]])
                assert fab.partitioned
                await settle(fab, 0.5)
                fab.hosts[2].fire_membership(JoinEvent(2, 1))
                await fab.quiesce()
                fab.heal_partition()
                assert not fab.partitioned
                await settle(fab, 0.4)
                await settle(fab, 0.4)
                ok, detail = fab.agreement(1)
                members = sorted(fab.hosts[0].states[1].members)
                tree = fab.hosts[0].states[1].installed.shared_tree
                return ok, detail, members, tree
            finally:
                await fab.shutdown()

        ok, detail, members, tree = asyncio.run(run())
        assert ok, detail
        assert members == [0, 2, 3]
        assert tree.spans({0, 2, 3})

    def test_partition_guards(self):
        fab = LiveFabric(grid_network(1, 4), ProtocolConfig(), fast_config())
        with pytest.raises(ValueError, match="overlap"):
            fab.partition([[0, 1], [1, 2]])
        fab.partition([[0, 1], [2, 3]])
        with pytest.raises(RuntimeError, match="heal it first"):
            fab.partition([[0], [1]])
        fab.heal_partition()
        fab.partition([[0], [1, 2, 3]])
        fab.heal_partition()


class _StubTransport:
    """Records the control frames a ResyncManager would emit."""

    def __init__(self) -> None:
        self.dbds: list = []
        self.lsus: list = []
        self.snaps: list = []
        self.hellos: list = []

    def send_dbd(self, src, dest, headers, reply=False):
        self.dbds.append((src, dest, dict(headers), reply))

    def send_lsu(self, src, dest, lsa):
        self.lsus.append((src, dest, lsa))

    def send_snap(self, src, dest, snapshot):
        self.snaps.append((src, dest, snapshot))

    def send_hello(self, src, dest, generation):
        self.hellos.append((src, dest, generation))


class _StubSwitch:
    def capture_resync_snapshots(self):
        return []


class _StubRouter:
    def __init__(self, lsdb: LinkStateDatabase) -> None:
        self.lsdb = lsdb


class _StubFloodOut:
    peers: list = []


class _StubHost:
    """Just enough host surface for ResyncManager unit tests."""

    def __init__(self, net, switch_id: int = 0, dead_interval: float = 0.3) -> None:
        self.net = net
        self.switch_id = switch_id
        self.dead_interval = dead_interval
        self.hello_interval = 0.0  # no dead-interval jitter
        self.switch = _StubSwitch()
        self.flood_out = _StubFloodOut()
        lsdb = LinkStateDatabase(net.n)
        lsdb.install(RouterLsa(switch_id, 5, ()))
        self.router = _StubRouter(lsdb)
        self.link_events: list = []

    def fire_link(self, u, v, up):
        self.link_events.append((u, v, up))
        return []


class TestResyncManagerUnit:
    def test_admin_down_link_is_not_resurrected(self):
        """Hello recovery must not re-up a link an operator took down."""
        net = grid_network(1, 2)
        net.set_link_state(0, 1, up=False)  # admin-down before any silence
        host = _StubHost(net)
        mgr = ResyncManager(host, _StubTransport())
        mgr.mark_boot(0.0)
        mgr.check_dead(10.0)  # way past the dead interval
        assert mgr.dead == {1: False}  # dead, but *we* did not down the link
        assert host.link_events == []  # no link-down: it was already down
        mgr.on_hello(frames.HelloFrame(src=1, dest=0, generation=1), 11.0)
        assert 1 not in mgr.dead
        assert host.link_events == []  # and no link-up either

    def test_dead_neighbor_with_up_link_fires_both_transitions(self):
        net = grid_network(1, 2)
        host = _StubHost(net)
        mgr = ResyncManager(host, _StubTransport())
        mgr.mark_boot(0.0)
        mgr.check_dead(10.0)
        assert mgr.dead == {1: True}
        assert host.link_events == [(0, 1, False)]
        mgr.on_hello(frames.HelloFrame(src=1, dest=0, generation=1), 11.0)
        assert host.link_events == [(0, 1, False), (0, 1, True)]

    def test_generation_bump_triggers_resync(self):
        net = grid_network(1, 2)
        host = _StubHost(net)
        transport = _StubTransport()
        mgr = ResyncManager(host, transport, generation=1, cold_boot=False)
        mgr.on_hello(frames.HelloFrame(src=1, dest=0, generation=1), 1.0)
        assert transport.dbds == []  # steady state: no resync
        mgr.on_hello(frames.HelloFrame(src=1, dest=0, generation=2), 2.0)
        assert len(transport.dbds) == 1  # the peer restarted: resync
        mgr.on_hello(frames.HelloFrame(src=1, dest=0, generation=2), 3.0)
        assert len(transport.dbds) == 1  # same generation again: no repeat

    def test_cold_boot_first_contact_triggers_resync(self):
        net = grid_network(1, 2)
        host = _StubHost(net)
        transport = _StubTransport()
        mgr = ResyncManager(host, transport, generation=2, cold_boot=True)
        mgr.on_hello(frames.HelloFrame(src=1, dest=0, generation=1), 1.0)
        assert len(transport.dbds) == 1

    def test_dbd_reply_terminates_handshake(self):
        """A reply DBD must never trigger another DBD (no ping-pong)."""
        net = grid_network(1, 2)
        host = _StubHost(net)  # holds only its own LSA (origin 0, seq 5)
        transport = _StubTransport()
        mgr = ResyncManager(host, transport)
        # Request from a peer that knows origin 1 better than we do:
        request = frames.DbdFrame(
            src=1, dest=0, seq=0, reply=False, headers=((1, 3),)
        )
        mgr.on_dbd(request)
        # We owe the peer our better origin-0 LSA, and a reply DBD so it
        # sends us origin 1.
        assert [(s, d) for s, d, _ in transport.lsus] == [(0, 1)]
        assert [entry[3] for entry in transport.dbds] == [True]
        # The peer's reply (same headers, reply-flagged) must not re-reply.
        reply = frames.DbdFrame(src=1, dest=0, seq=1, reply=True, headers=((1, 3),))
        mgr.on_dbd(reply)
        assert [entry[3] for entry in transport.dbds] == [True]


class TestQuiesceDiagnostics:
    def test_timeout_names_the_culprits(self):
        """A stuck barrier must say who is busy, not just that it timed out."""

        async def run():
            fab = LiveFabric(
                grid_network(1, 3),
                ProtocolConfig(),
                LiveConfig(
                    # Frames into the cut retry far beyond the test timeout.
                    policy=RetransmitPolicy(rto=30.0, rto_max=30.0, max_attempts=9),
                    quiesce_timeout=0.3,
                ),
            )
            fab.register_symmetric(1)
            await fab.start()
            try:
                fab.cut_links([(0, 1), (1, 2)])
                fab.hosts[0].fire_membership(JoinEvent(0, 1))
                with pytest.raises(QuiescenceTimeout) as exc:
                    await fab.quiesce()
                return str(exc.value), fab.quiesce_diagnostics()
            finally:
                await fab.shutdown()

        message, diagnostics = asyncio.run(run())
        assert "no quiescence within" in message
        assert "frames unacked" in message
        assert "0->" in message  # the pending frame keys are named
        assert "cut pairs" in diagnostics
        assert "(0, 1)" in diagnostics

    def test_diagnostics_when_idle(self):
        fab = LiveFabric(grid_network(1, 2), ProtocolConfig(), LiveConfig())
        assert "busy hosts: none" in fab.quiesce_diagnostics()
