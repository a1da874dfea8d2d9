"""Host-level tests of :class:`~repro.net.host.LiveSwitch`, without sockets.

Three live hosts share a recording transport; the test plays the wire
(FIFO delivery) and the pump (each host's local kernel) by hand, so the
interleaving is exact: a link fails and recovers inside one Tc window at
the detecting host.  This is the live-runtime port of the explorer's
``degraded-repair`` finding (docs/systematic-testing.md): the detector's
rule is :meth:`~repro.core.switch.DgmcSwitch.detect_link_change`, and the
host must run it whole.
"""

from __future__ import annotations

import gc
from collections import deque

from repro.core.events import JoinEvent, LeaveEvent
from repro.core.mc import ConnectionSpec, ConnectionType
from repro.core.protocol import ProtocolConfig
from repro.lsr.flooding import Transport
from repro.net.host import LiveSwitch
from repro.sim import Process
from repro.topo.generators import grid_network

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
    hosts = {
        x: LiveSwitch(x, net.copy(), config, transport, connection_registry=registry)
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
            dest, payload = transport.queue.popleft()
            hosts[dest].ingest(dest, payload)
        for host in hosts.values():
            host.sim.run()


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
    event, names) per event for its whole lifetime.  What stays alive is
    bounded by the connections held -- one ReceiveLSA() daemon per host --
    however many events have passed."""
    hosts, transport = line_of_hosts()

    def churn(cycles: int) -> None:
        for _ in range(cycles):
            hosts[1].fire_membership(JoinEvent(1, CID))
            settle(hosts, transport)
            hosts[1].fire_membership(LeaveEvent(1, CID))
            settle(hosts, transport)

    churn(2)
    held = live_processes(hosts)
    assert held == len(hosts)  # one connection: one daemon per host
    churn(10)
    assert live_processes(hosts) == held
