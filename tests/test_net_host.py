"""Host-level tests of :class:`~repro.net.host.LiveSwitch`, without sockets.

Three live hosts share a recording transport; the test plays the wire
(FIFO delivery) and the pump (each host's local kernel) by hand, so the
interleaving is exact: a link fails and recovers inside one Tc window at
the detecting host.  This is the live-runtime port of the explorer's
``degraded-repair`` finding (docs/systematic-testing.md): the detector's
rule is :meth:`~repro.core.switch.DgmcSwitch.detect_link_change`, and the
host must run it whole.  The same harness pins the cold-boot rule: a
restarted host proposes nothing before its database exchange completes.
"""

from __future__ import annotations

import gc
import sys
from collections import deque
from dataclasses import replace

import pytest

from repro.core.events import JoinEvent, LeaveEvent
from repro.core.lsa import McEvent, McLsa
from repro.core.mc import ConnectionSpec, ConnectionType, Role
from repro.core.protocol import ProtocolConfig
from repro.core import wire
from repro.core.switch import ReceiveMemo
from repro.core.wire import decode_lsa, encode_lsa, encode_topology
from repro.lsr.flooding import Transport
from repro.lsr.lsa import NonMcLsa, RouterLsa
from repro.lsr.spfcache import SolvedImages
from repro.net import frames
from repro.net.host import LiveFloodOut, LiveSwitch
from repro.obs.context import TraceContext
from repro.sim import Process
from repro.topo.generators import grid_network
from repro.trees.base import McTopology, MulticastTree

CID = 1
MEMBERS = {0, 2}


class RecordingTransport(Transport):
    """Queues every datagram; the test delivers them in send order."""

    def __init__(self) -> None:
        self.handlers = {}
        self.queue: deque = deque()

    def register(self, switch_id, handler) -> None:
        self.handlers[switch_id] = handler

    def send(self, src, dest, payload, delay=0.0) -> None:
        self.queue.append((dest, payload))

    # The resync control frames, queued like everything else.
    def send_lsu(self, src, dest, lsa) -> None:
        self.queue.append((dest, frames.LsuFrame(src, dest, 0, lsa)))

    def send_snap(self, src, dest, snapshot) -> None:
        self.queue.append((dest, frames.SnapFrame(src, dest, 0, snapshot)))

    def has_handler(self, switch_id) -> bool:
        return switch_id in self.handlers

    @property
    def idle(self) -> bool:
        return not self.queue

    @property
    def handler_count(self) -> int:
        return len(self.handlers)


def line_of_hosts(**config_kw):
    """Hosts 0-1-2 on a line with connection ``CID`` installed over MEMBERS."""
    config = ProtocolConfig(compute_time=1.0, **config_kw)
    net = grid_network(1, 3)
    transport = RecordingTransport()
    registry = {}
    solved = SolvedImages()
    memo = ReceiveMemo()
    hosts = {
        x: LiveSwitch(
            x, net.copy(), config, transport, solved, memo,
            connection_registry=registry,
        )
        for x in net.switches()
    }
    for x, host in hosts.items():
        transport.register(x, host.ingest)
        host.seed_converged_lsdb()
    registry[CID] = ConnectionSpec(CID, ConnectionType.SYMMETRIC)
    for member in sorted(MEMBERS):
        hosts[member].fire_membership(JoinEvent(member, CID))
        settle(hosts, transport)
    for host in hosts.values():
        assert host.states[CID].installed.spans(MEMBERS)
    return hosts, transport


def settle(hosts, transport) -> None:
    """FIFO delivery and local compute until nothing is left anywhere."""
    while transport.queue or any(h.sim.peek() is not None for h in hosts.values()):
        while transport.queue:
            deliver(hosts, *transport.queue.popleft())
        for host in hosts.values():
            host.sim.run()


def deliver(hosts, dest, item) -> None:
    if dest not in hosts:
        return  # frames to a crashed host vanish
    if isinstance(item, (McLsa, NonMcLsa)):
        hosts[dest].ingest(dest, item)
    else:
        hosts[dest].resync.handle(item, now=0.0)


def fail_inside_tc_window(hosts):
    """Host 1 detects (1, 2) down; its repair computation takes the CPU."""
    detector = hosts[1]
    hosts[2].apply_link_state(1, 2, up=False)
    assert detector.fire_link(1, 2, up=False) == [CID]
    detector.sim.run_instant()
    assert detector.switch.inflight_computes
    hosts[2].apply_link_state(1, 2, up=True)
    return detector


def test_link_recovering_inside_tc_window_is_reproposed():
    hosts, transport = line_of_hosts()
    detector = fail_inside_tc_window(hosts)
    # The installed tree is still the old, whole one; only the computation
    # in flight (snapshotted on the broken image) makes this an event.
    assert detector.fire_link(1, 2, up=True) == [CID]
    settle(hosts, transport)
    for x, host in hosts.items():
        assert host.states[CID].installed.spans(MEMBERS), f"host {x} degraded"


def test_live_host_honours_the_degraded_repair_ablation():
    hosts, _ = line_of_hosts(ablate_degraded_repair=True)
    detector = fail_inside_tc_window(hosts)
    assert detector.fire_link(1, 2, up=True) == []


def test_host_with_only_a_wake_pending_is_not_idle():
    """One entry in the kernel's current-instant FIFO leaves the heap
    empty, and the quiescence barrier must still see it: a ReceiveLSA()
    wake (its LSA waits in the inbox until the wake drains it), or the
    first step of an EventHandler(), which queues nothing anywhere."""
    hosts, transport = line_of_hosts()
    leaver, host = hosts[0], hosts[1]
    for each in (leaver, host):
        each._wake.clear()  # no pump runs here; it would have taken the wake
        assert each.idle
    leaver.fire_membership(LeaveEvent(0, CID))
    leaver._wake.clear()
    assert leaver.switch.mailboxes_empty
    assert leaver.sim.queue_depth == 1 and leaver.sim.peek() == leaver.sim.now
    assert not leaver.idle
    leaver.sim.run()  # EventHandler() computes, then floods the leave
    lsa = next(item for dest, item in transport.queue if dest == 1)
    host.ingest(1, lsa)
    host._wake.clear()
    assert host.switch.queued_lsas(CID) == [lsa]
    assert host.sim.queue_depth == 1 and host.sim.peek() == host.sim.now
    assert not host.idle
    host.sim.run()
    assert host.idle


def test_flood_out_is_one_send_per_peer_over_a_send_only_transport():
    """A flood is one ``send_flood``; a transport overriding only ``send``
    sees one call per peer but the origin, in id order."""
    transport = RecordingTransport()
    flood_out = LiveFloodOut(transport, 2, [4, 0, 3, 1, 2])
    ctx = TraceContext(2, -1, "link-down", 5)
    flood_out.current_ctx = ctx
    lsa = NonMcLsa(2, RouterLsa(2, 7, ()))
    flood_out.flood(2, lsa, kind="non-mc")
    assert list(transport.queue) == [(dest, lsa) for dest in (0, 1, 3, 4)]
    assert lsa.ctx is ctx  # back-stamped before the copies went out
    transport.queue.clear()
    flood_out.flood(3, lsa, kind="non-mc")  # a resync re-flood of 3's LSA
    assert [dest for dest, _ in transport.queue] == [0, 1, 2, 4]
    assert flood_out.delivery_count == 8
    assert flood_out.count_for("non-mc") == 2


def live_processes(hosts) -> int:
    """Kernel processes of these hosts that anything still references."""
    gc.collect()
    sims = {id(host.sim) for host in hosts.values()}
    return sum(
        1 for obj in gc.get_objects()
        if isinstance(obj, Process) and id(obj.sim) in sims
    )


def test_finished_event_handlers_are_not_retained():
    """Regression: the kernel kept every spawned process in a list nothing
    read, so a host leaked one finished EventHandler() (generator, done
    event, names) per event for its whole lifetime.  Nothing stays alive
    at rest: ReceiveLSA() is a wake over an inbox, not a parked process."""
    hosts, transport = line_of_hosts()

    def churn(cycles: int) -> None:
        for _ in range(cycles):
            hosts[1].fire_membership(JoinEvent(1, CID))
            settle(hosts, transport)
            hosts[1].fire_membership(LeaveEvent(1, CID))
            settle(hosts, transport)

    churn(12)
    assert live_processes(hosts) == 0


def test_cold_booted_host_proposes_nothing_before_its_lsdb_is_complete():
    """Regression (chaos seed 1 with --frr, about one run in three): a
    restarted host merged a SNAP carrying ``R > C`` while its LSDB still
    lacked entries, proposed from that partial image -- members it could
    not see left out -- and, having the lowest id, won the equal-stamp
    tie-break against the correct proposal.  Every switch then agreed on
    the degraded tree forever.  Here the wire delivers the SNAP before the
    LSUs of the same database exchange."""
    hosts, transport = line_of_hosts()
    survivor = hosts[1]
    old = hosts.pop(0)  # host 0 crashes; its neighbour declares it dead ...
    survivor.fire_link(0, 1, up=False)
    settle(hosts, transport)
    reborn = LiveSwitch(
        0, old.net.copy(), old.config, transport, old.router.lsdb.solved,
        old.switch.memo, connection_registry=old.connection_registry, generation=2, cold_boot=True,
    )
    reborn.boot_cold()
    # ... hears it again: the repair computation takes the CPU (R > C) ...
    survivor.fire_link(0, 1, up=True)
    survivor.sim.run_instant()
    assert survivor.switch.inflight_computes
    while transport.queue:  # host 0 is not listening yet
        deliver(hosts, *transport.queue.popleft())
    # ... and answers its database description inside that Tc window.
    headers = tuple(sorted(reborn.router.lsdb.headers().items()))
    survivor.resync.handle(frames.DbdFrame(0, 1, 0, False, headers), now=0.0)
    exchange = [item for _, item in transport.queue]
    transport.queue.clear()
    hosts[0] = reborn
    snaps_first = sorted(exchange, key=lambda f: isinstance(f, frames.LsuFrame))
    assert isinstance(snaps_first[0], frames.SnapFrame)
    for item in snaps_first:
        deliver(hosts, 0, item)
        reborn.sim.run()
        if not reborn.router.lsdb.complete():
            assert not any(isinstance(p, McLsa) for _, p in transport.queue)
    assert reborn.router.lsdb.complete()
    settle(hosts, transport)
    for x, host in hosts.items():
        assert host.states[CID].installed.spans(MEMBERS), f"host {x} degraded"


def rejections(host) -> dict:
    """``live_rejected_total`` by reason, as the host's registry holds it."""
    prefix = 'live_rejected_total{reason="'
    return {
        key[len(prefix):-2]: value
        for key, value in host.metrics.snapshot().items()
        if key.startswith(prefix)
    }


def test_a_proposal_naming_a_switch_past_n_is_rejected_at_ingest():
    """Regression: ingest checked an MC LSA's source, stamp and connection
    only, so a join whose (cleanly decoded) proposal names switch 99 on a
    3-switch network was accepted and installed."""
    hosts, transport = line_of_hosts()
    receiver, proposer = hosts[0], hosts[1]
    installed = receiver.states[CID].installed
    stamp = proposer.states[CID].received.snapshot()
    stamp.increment(1)
    bogus = McTopology.shared(MulticastTree.build([(0, 1), (1, 99)], [0, 1, 99]))
    lsa = McLsa(1, McEvent.JOIN, CID, bogus, stamp, Role.BOTH)
    receiver.ingest(0, decode_lsa(encode_lsa(lsa)))
    settle(hosts, transport)
    assert receiver.states[CID].installed is installed
    assert rejections(receiver) == {"node-out-of-range": 1}


def snapshot_naming(host, field: str):
    """``host``'s snapshot of ``CID`` with one field pointing past n = 3."""
    snap = host.switch.capture_resync_snapshot(CID)
    if field == "members":
        return replace(snap, members=snap.members + ((99, frozenset({"receiver"})),))
    if field == "topology":  # one event ahead, so its topology would install
        ahead = snap.current.snapshot()
        ahead.increment(1)
        tree = MulticastTree.build([(0, 1), (1, 99)], [0, 99])
        return replace(
            snap, received=ahead, expected=ahead, current=ahead,
            topology=encode_topology(McTopology.shared(tree)),
        )
    if field == "active_backup":
        return replace(snap, active_backup=((0, 1, (0, 99, 1)),))
    return replace(snap, proposer=4)


@pytest.mark.parametrize(
    "field, reason",
    [
        ("members", "node-out-of-range"),
        ("topology", "node-out-of-range"),
        ("active_backup", "node-out-of-range"),
        ("proposer", "proposer-out-of-range"),
    ],
)
def test_a_snapshot_naming_a_switch_past_n_is_rejected_at_ingest(field, reason):
    """A SNAP frame is checked like an MC LSA: every member, topology node
    and backup-path node must be a switch of this network, and the
    proposer one of them or the "no proposer" sentinel n.  Each frame
    below travels the codec (encode, decode) before it is handled."""
    hosts, transport = line_of_hosts()
    receiver = hosts[0]
    before = receiver.states[CID].canonical()
    snap = snapshot_naming(hosts[1], field)
    frame = frames.decode_frame(frames.encode_snap(1, 0, 0, snap))
    receiver.resync.handle(frame, now=0.0)
    settle(hosts, transport)
    assert receiver.states[CID].canonical() == before
    assert rejections(receiver) == {reason: 1}


def test_an_installing_snapshot_decodes_its_topology_once(monkeypatch):
    """Regression: the frame decoder decoded a SNAP's topology only to
    validate it, ingest decoded it again for its node range and the merge
    a third time to install it.  One decode now serves all three."""
    hosts, _ = line_of_hosts()
    receiver = hosts[0]
    snap = hosts[1].switch.capture_resync_snapshot(CID)
    ahead = snap.current.snapshot()
    ahead.increment(1)
    topology = encode_topology(
        McTopology.shared(MulticastTree.build([(0, 1), (1, 2)], [0, 2]))
    )
    snap = replace(
        snap, received=ahead, expected=ahead, current=ahead, topology=topology
    )
    data = frames.encode_snap(1, 0, 0, snap)
    original, decoded = wire.decode_topology, []

    def counted(data):
        decoded.append(data)
        return original(data)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("repro") and getattr(
            module, "decode_topology", None
        ) is original:
            monkeypatch.setattr(module, "decode_topology", counted)
    receiver.resync.handle(frames.decode_frame(data), now=0.0)
    assert encode_topology(receiver.states[CID].installed) == topology
    assert rejections(receiver) == {}
    assert decoded == [topology]


def test_the_no_proposer_sentinel_is_admitted():
    """Proposer n is "no proposer yet", which a real snapshot carries."""
    hosts, _ = line_of_hosts()
    snap = replace(hosts[1].switch.capture_resync_snapshot(CID), proposer=3)
    assert hosts[0].admit_snapshot(1, snap)
    assert rejections(hosts[0]) == {}
