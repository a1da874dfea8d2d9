"""Drivers: one class per kind of workload, all with the same shape.

``setup()`` builds the deployment and converges the initial membership;
``next_round()`` injects one round's events, runs to quiescence inside a
timed (and, in the traced pass, traced) section, then -- outside it --
checks the round against the correctness oracle.  The load generator is
closed-loop with one client: a round is injected only after the previous
one reached quiescence and passed (or failed) its checks.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from random import Random
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import DgmcNetwork, JoinEvent, LeaveEvent, LinkEvent, ProtocolConfig
from repro.core.wire import decode_lsa, encode_lsa
from repro.dataplane.engine import BatchForwardingEngine
from repro.dataplane.forwarding import ForwardingEngine
from repro.dataplane.packet import McPacket
from repro.lsr import spf, spfcache
from repro.net.fabric import LiveConfig, LiveFabric, QuiescenceTimeout
from repro.topo.generators import waxman_network
from repro.workloads.zipf import ConvergedGroups, GroupEvent, ZipfWorkload

from . import workloads as wl
from .clock import Clock
from .trace import Trace

#: Simulated spacing of a round's events: well inside one Tc window
#: (compute_time=0.5), so the events of a round genuinely conflict.
EVENT_SPACING = 0.1
COMPUTE_TIME = 0.5
PER_HOP_DELAY = 0.05


def protocol_config(spec: wl.Spec) -> ProtocolConfig:
    return ProtocolConfig(
        compute_time=COMPUTE_TIME, per_hop_delay=PER_HOP_DELAY,
        enable_frr=spec.frr,
    )


def to_event(item: wl.Event):
    kind = item[0]
    if kind == "J":
        return JoinEvent(item[1], item[2])
    if kind == "L":
        return LeaveEvent(item[1], item[2])
    return LinkEvent(item[1], item[2], item[3], up=(kind == "U"))


@dataclass
class Round:
    """What one round measured."""

    #: Injected protocol events (the denominator of every per-event figure).
    events: int
    #: Operations checked by the oracle, and how many of them failed.
    ops: int
    failed: int
    #: Throughput numerator: events, or packets on the data-plane workload.
    work: int
    #: Per-op latency samples, (raw ms, speed-normalised ms).
    samples: List[Tuple[float, float]]
    #: Seconds of work the throughput is taken over (raw, normalised).
    busy_raw_s: float
    busy_norm_s: float
    #: Wall seconds of every timed section, raw (what the trace must
    #: cover) and normalised (what warm-up rounds add to set-up time).
    timed_raw_s: float
    timed_norm_s: float
    #: Simulated seconds from the last injection to the last install.
    converge: List[float] = field(default_factory=list)


@dataclass
class WireTally:
    """Control-plane bytes, counted from the flooded payloads of a round."""

    ctrl_bytes: int = 0
    encode_s: float = 0.0
    decode_s: float = 0.0
    lsas: int = 0


class Scenario:
    """Shared plumbing: the timed section and the native-counter snapshot."""

    def __init__(
        self, spec: wl.Spec, seed: int, clock: Clock, trace: Optional[Trace]
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.clock = clock
        self.trace = trace
        self.wire = WireTally()
        #: Details of failed checks (first few), for the report.
        self.failures: List[str] = []
        #: Data-plane workload only.  Oracle (reference engine) cost, kept
        #: apart from the program's own time; and normalised ms of
        #: first-after-churn vs. steady batches, whose difference is what
        #: a phase pays to recompile.
        self.reference_s = 0.0
        self.reference_packets = 0
        self.first_batch_ms: List[float] = []
        self.steady_batch_ms: List[float] = []

    def _timed(self, fn: Callable[[], object]) -> Tuple[float, float]:
        """Run ``fn`` timed (and traced, when a trace is attached)."""
        trace = self.trace
        if trace is not None:
            trace.paused = False
        try:
            _, raw, norm = self.clock.measure(fn)
        finally:
            if trace is not None:
                trace.paused = True
        return raw, norm

    def _fail(self, detail: str) -> None:
        if len(self.failures) < 5:
            self.failures.append(detail)

    def state_units(self) -> int:
        """Switch x connection pairs holding state (memory denominator)."""
        return self.spec.n * self.spec.connections

    def setup(self) -> Tuple[float, float, int, int]:
        """Build, converge and warm up: ``(raw_s, norm_s, ops, failed)``.

        Warm-up rounds (first-use template builds, the first repair
        chains) run here and their time counts as set-up, so work a
        later change defers to first use still shows in ``setup_s``.
        """
        raw, norm = self.build()
        ops = failed = 0
        for _ in range(self.spec.warmup_rounds):
            rnd = self.next_round(None)
            raw += rnd.timed_raw_s
            norm += rnd.timed_norm_s
            ops += rnd.ops
            failed += rnd.failed
        return raw, norm, ops, failed

    def rebind(self) -> None:
        """Re-register callbacks captured before the trace wrappers went in."""

    # Overridden per kind.
    def build(self) -> Tuple[float, float]:
        raise NotImplementedError

    def next_round(self, digest: Optional[wl.Digest]) -> Round:
        raise NotImplementedError

    def native(self) -> Dict[str, float]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


def _spf_counters() -> Dict[str, float]:
    stats = spfcache.GLOBAL_STATS
    return {
        "spf.dijkstra_runs": spf.RUN_COUNTER.count,
        "spf.hits": stats.hits,
        "spf.misses": stats.misses,
        "spf.ispf_repairs": stats.ispf_repairs,
        "spf.ispf_fallbacks": stats.ispf_full_fallbacks,
    }


class SimScenario(Scenario):
    """Membership churn or link flaps on the discrete-event ``DgmcNetwork``."""

    def build(self) -> Tuple[float, float]:
        spec = self.spec
        if spec.kind == "churn":
            self.gen = wl.ChurnGenerator(spec, self.seed)
        else:
            self.gen = wl.LinkFlapGenerator(spec, self.seed)
        raw_total = norm_total = 0.0

        def construct() -> DgmcNetwork:
            net = waxman_network(spec.n, Random(spec.topo_seed))
            return DgmcNetwork(net, protocol_config(spec))

        self.dgmc, raw, norm = self.clock.measure(construct)
        raw_total += raw
        norm_total += norm
        for c in range(1, spec.connections + 1):
            self.dgmc.register_symmetric(c)
        for item in self.gen.initial():
            self.dgmc.inject(to_event(item), at=self.dgmc.sim.now + 1.0)
            _, raw, norm = self.clock.measure(self.dgmc.run)
            raw_total += raw
            norm_total += norm
        failed = self._check()
        if failed:
            raise RuntimeError(f"set-up did not converge: {self.failures}")
        return raw_total, norm_total

    # -- oracle ------------------------------------------------------------------

    def _check(self) -> int:
        """Connections violating agreement / spanning / expected members."""
        bad = 0
        for c, expected in sorted(self.gen.members.items()):
            ok, detail = self.dgmc.agreement(c)
            if not ok:
                self._fail(detail)
                bad += 1
                continue
            state = self.dgmc.switches[min(expected)].states.get(c)
            if state is None or state.member_set != frozenset(expected):
                self._fail(f"connection {c}: member list is not the expected one")
                bad += 1
            elif state.installed is None or not state.installed.spans(
                state.member_set
            ):
                self._fail(f"connection {c}: installed topology misses members")
                bad += 1
        return bad

    def _candidates(self, connection: int) -> List[wl.Edge]:
        """Non-bridge edges of this connection's installed tree."""
        holder = min(self.gen.members[connection])
        state = self.dgmc.switches[holder].states[connection]
        bridges = set(self.dgmc.net.bridges())
        return sorted(e for e in state.installed.all_edges() if e not in bridges)

    # -- rounds ------------------------------------------------------------------

    def _run_injected(self, items: List[wl.Event]) -> Tuple[float, float, List[float]]:
        dgmc = self.dgmc
        start = dgmc.sim.now + 1.0
        for i, item in enumerate(items):
            dgmc.inject(to_event(item), at=start + EVENT_SPACING * i)
        last_injection = start + EVENT_SPACING * (len(items) - 1)
        log_pos = len(dgmc.install_log)
        raw, norm = self._timed(dgmc.run)
        converge = []
        if len(dgmc.install_log) > log_pos:
            converge.append(dgmc.install_log[-1].time - last_injection)
        self._tally_floods()
        return raw, norm, converge

    def next_round(self, digest: Optional[wl.Digest]) -> Round:
        if self.spec.kind == "churn":
            items = self.gen.next_round()
            if digest is not None:
                digest.add(items)
            raw, norm, converge = self._run_injected(items)
            failed = len(items) if self._check() else 0
        else:
            down, up = self.gen.next_cycle(self._candidates)
            items = [down, up]
            if digest is not None:
                digest.add(items)
            raw, norm, converge = self._run_injected([down])
            failed = 1 if self._check() else 0
            raw_up, norm_up, _ = self._run_injected([up])
            failed += 1 if self._check() else 0
            raw += raw_up
            norm += norm_up
        n = len(items)
        return Round(
            events=n, ops=n, failed=failed, work=n,
            samples=[(raw / n * 1e3, norm / n * 1e3)],
            busy_raw_s=raw, busy_norm_s=norm, timed_raw_s=raw,
            timed_norm_s=norm, converge=converge,
        )

    def _tally_floods(self) -> None:
        """Price the round's floods on the wire (traced pass only).

        The simulator never serialises an LSA, so the benchmark does:
        bytes = len(encode_lsa(payload)) per delivery.  Runs outside the
        timed section with the trace paused.
        """
        trace = self.trace
        if trace is None or not trace.floods:
            return
        tally = self.wire
        for payload, _kind, fanout in trace.floods:
            start = perf_counter()
            data = encode_lsa(payload)
            mid = perf_counter()
            decode_lsa(data)
            end = perf_counter()
            tally.encode_s += mid - start
            tally.decode_s += end - mid
            tally.lsas += 1
            tally.ctrl_bytes += len(data) * fanout
            trace.note_encoded(payload, data)
        trace.floods.clear()

    def native(self) -> Dict[str, float]:
        dgmc = self.dgmc
        out = {
            "computations": dgmc.total_computations(),
            "floodings": dgmc.mc_floodings(),
            "floods_all": dgmc.fabric.total_floods,
            "deliveries": dgmc.fabric.delivery_count,
            "kernel_events": dgmc.sim.events_dispatched,
            "installs": len(dgmc.install_log),
            "self_installs": sum(
                1 for r in dgmc.install_log if r.switch == r.proposer
            ),
        }
        out.update(_spf_counters())
        return out


class ZipfScenario(Scenario):
    """Batched data plane over Zipf groups; the control plane is bypassed."""

    def build(self) -> Tuple[float, float]:
        spec = self.spec
        self.gen = wl.ZipfGenerator(spec, self.seed)
        initial = ZipfWorkload(
            spec.n, spec.connections, wl.ZIPF_EXPONENT, self.gen.initial(), ()
        )

        def construct() -> None:
            net = waxman_network(spec.n, Random(spec.topo_seed))
            self.dgmc = DgmcNetwork(net, protocol_config(spec))
            self.seeder = ConvergedGroups(self.dgmc)
            self.seeder.seed(initial)
            self.engine = BatchForwardingEngine(self.dgmc)

        _, raw, norm = self.clock.measure(construct)
        self.reference = ForwardingEngine(self.dgmc)
        return raw, norm

    def next_round(self, digest: Optional[wl.Digest]) -> Round:
        events, batches = self.gen.next_phase()
        if digest is not None:
            digest.add(events)
            digest.add(batches)
        busy_raw = busy_norm = 0.0

        def churn() -> None:
            for kind, switch, group in events:
                self.seeder.apply(GroupEvent(group, switch, kind == "J"))

        churn_raw, churn_norm = self._timed(churn)
        samples: List[Tuple[float, float]] = []
        failed = 0
        packets_total = 0
        for index, batch in enumerate(batches):
            at = self.dgmc.sim.now + 1.0
            packets = [McPacket(src, g) for src, g in batch]
            records: List = []

            def dispatch() -> None:
                records.extend(self.engine.dispatch(packets, at=at))

            raw, norm = self._timed(dispatch)
            busy_raw += raw
            busy_norm += norm
            samples.append((raw * 1e3, norm * 1e3))
            (self.first_batch_ms if index == 0 else self.steady_batch_ms).append(
                norm * 1e3
            )
            packets_total += len(packets)
            for record in records:
                if record.undeliverable or record.delivered.keys() != record.intended:
                    failed += 1
                    self._fail(f"packet {record.packet!r}: delivered != intended")
            if index == 0:
                failed += self._shadow(batch, records, at)
            self.engine.report.records.clear()
        return Round(
            events=len(events), ops=packets_total, failed=failed,
            work=packets_total, samples=samples,
            busy_raw_s=busy_raw, busy_norm_s=busy_norm,
            timed_raw_s=busy_raw + churn_raw,
            timed_norm_s=busy_norm + churn_norm,
        )

    def _shadow(self, batch, records, at: float) -> int:
        """Replay the head of a post-churn batch through the reference
        engine and compare field for field (outside the timed section)."""
        take = wl.ZIPF_SHADOW_PER_PHASE
        start = perf_counter()
        twins = [McPacket(src, g) for src, g in batch[:take]]
        shadow = [self.reference.send(p, at=at) for p in twins]
        self.dgmc.run()
        self.reference_s += perf_counter() - start
        self.reference_packets += take
        self.reference.report.records.clear()
        mismatched = 0
        for ref, got in zip(shadow, records[:take]):
            if _record_key(ref) != _record_key(got):
                mismatched += 1
                self._fail(
                    f"flow (src={ref.packet.source}, G={ref.packet.connection_id}): "
                    f"reference {_record_key(ref)} != batched {_record_key(got)}"
                )
        return mismatched

    def native(self) -> Dict[str, float]:
        snap = self.dgmc.metrics.snapshot()
        out = {
            name: snap.get(f"dataplane_{name}_total", 0.0)
            for name in (
                "batches", "packets", "compiled_connections", "template_builds",
                "template_hits", "invalidations", "partial_invalidations",
            )
        }
        out.update(
            computations=0, floodings=0, floods_all=0, deliveries=0,
            kernel_events=self.dgmc.sim.events_dispatched,
            installs=len(self.dgmc.install_log), self_installs=0,
        )
        out.update(_spf_counters())
        return out


def _record_key(record) -> tuple:
    return (
        record.undeliverable,
        record.intended,
        record.hops,
        record.duplicates,
        record.ttl_drops,
        tuple(sorted(record.delivered.items())),
    )


class LiveScenario(Scenario):
    """``LiveFabric`` over host-loopback UDP, driven from a private loop.

    One op is one event: fired, then awaited to quiescence.  Latency is
    fire -> last install the event causes, stamped by a probe on the
    fabric's public ``slo.record_install`` (so the quiescence poll is not
    in it); events that install nothing (a healed link) yield no sample.
    Throughput is events per *CPU* second: between events the closed loop
    sleeps in the quiescence poll, and sleeping is not work.
    """

    QUIESCE_TIMEOUT_S = 10.0

    def build(self) -> Tuple[float, float]:
        spec = self.spec
        self.gen = wl.LiveGenerator(spec, self.seed)
        self.loop = asyncio.new_event_loop()
        self._last_install = 0.0

        def construct() -> None:
            net = waxman_network(spec.n, Random(spec.topo_seed))
            self.fabric = LiveFabric(
                net,
                protocol_config(spec),
                LiveConfig(
                    poll_interval=0.0, settle_polls=3,
                    quiesce_timeout=self.QUIESCE_TIMEOUT_S,
                ),
            )
            self.fabric.register_symmetric(1)
            self.loop.run_until_complete(self.fabric.start())
            self._probe_installs()
            for item in self.gen.initial():
                self.loop.run_until_complete(self._fire(to_event(item)))

        # Like the throughput, set-up is CPU seconds: most of its wall
        # time is the quiescence poll sleeping, which no speed factor fits.
        cpu0 = process_time()
        _, raw, norm = self.clock.measure(construct)
        cpu = process_time() - cpu0
        if self._check():
            raise RuntimeError(f"set-up did not converge: {self.failures}")
        return cpu, cpu * norm / raw

    def rebind(self) -> None:
        transport = self.fabric.transport
        for x, host in self.fabric.hosts.items():
            transport.unregister(x)
            transport.register(x, host.ingest)
            transport.register_control(x, host.handle_control)

    async def _fire(self, event) -> float:
        """Fire inside the loop (floods need it running); quiesce."""
        fired = perf_counter()
        self.fabric.fire_event(event)
        await self.fabric.quiesce()
        return fired

    def _probe_installs(self) -> None:
        record = self.fabric.slo.record_install

        def probe(ctx, switch, member_set) -> None:
            self._last_install = perf_counter()
            record(ctx, switch, member_set)

        self.fabric.slo.record_install = probe

    def teardown(self) -> None:
        self.loop.run_until_complete(self.fabric.shutdown())
        self.loop.close()

    def _check(self) -> int:
        ok, detail = self.fabric.agreement(1)
        if not ok:
            self._fail(detail)
            return 1
        expected = frozenset(self.gen.members)
        state = self.fabric.hosts[min(expected)].states.get(1)
        if state is None or state.member_set != expected:
            self._fail("live: member list is not the expected one")
            return 1
        if state.installed is None or not state.installed.spans(expected):
            self._fail("live: installed topology misses members")
            return 1
        return 0

    def _candidates(self, connection: int) -> List[wl.Edge]:
        state = self.fabric.hosts[min(self.gen.members)].states[connection]
        bridges = set(self.fabric.net.bridges())
        return sorted(e for e in state.installed.all_edges() if e not in bridges)

    def next_round(self, digest: Optional[wl.Digest]) -> Round:
        item = self.gen.next_event(self._candidates)
        if digest is not None:
            digest.add(item)
        event = to_event(item)
        trace = self.trace
        before = self.clock.fresh()
        if trace is not None:
            trace.paused = False
        timed_out = False
        self._last_install = 0.0
        cpu0 = process_time()
        wall0 = fired = perf_counter()
        try:
            fired = self.loop.run_until_complete(self._fire(event))
        except QuiescenceTimeout as exc:
            timed_out = True
            self._fail(f"live: {exc}")
        finally:
            cpu = process_time() - cpu0
            wall = perf_counter() - wall0
            if trace is not None:
                trace.paused = True
        scale = self.clock.scale(before, self.clock.fresh())
        failed = 1 if timed_out or self._check() else 0
        samples = []
        if not failed and self._last_install > fired:
            latency = self._last_install - fired
            samples.append((latency * 1e3, latency * scale * 1e3))
        return Round(
            events=1, ops=1, failed=failed, work=1, samples=samples,
            busy_raw_s=cpu, busy_norm_s=cpu * scale,
            timed_raw_s=wall, timed_norm_s=cpu * scale,
        )

    def native(self) -> Dict[str, float]:
        fabric = self.fabric
        live = fabric.counters()
        out = {
            "computations": sum(h.switch.computations for h in fabric.hosts.values()),
            "floodings": fabric.mc_floodings(),
            "floods_all": sum(h.flood_out.total_floods for h in fabric.hosts.values()),
            "deliveries": live.get("live_datagrams_received_total", 0.0),
            "kernel_events": sum(
                h.sim.events_dispatched for h in fabric.hosts.values()
            ),
            "installs": len(fabric.install_log),
            "self_installs": sum(
                1 for r in fabric.install_log if r.switch == r.proposer
            ),
            "live.sent": live.get("live_datagrams_sent_total", 0.0),
            "live.retransmits": live.get("live_retransmits_total", 0.0),
            "live.duplicates": live.get("live_duplicates_dropped_total", 0.0),
            "live.received": live.get("live_datagrams_received_total", 0.0),
        }
        out.update(_spf_counters())
        return out


def make_scenario(
    spec: wl.Spec, seed: int, clock: Clock, trace: Optional[Trace] = None
) -> Scenario:
    cls = {"churn": SimScenario, "linkflap": SimScenario,
           "zipf": ZipfScenario, "live": LiveScenario}[spec.kind]
    return cls(spec, seed, clock, trace)
