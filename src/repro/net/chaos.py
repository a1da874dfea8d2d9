"""Seeded chaos soak: crash, partition, churn -- then prove agreement.

The harness drives a :class:`~repro.net.fabric.LiveFabric` through a
seeded schedule of infrastructure faults (switch crashes with cold
restarts, network partitions with heals) interleaved with membership
churn, on top of steady injected frame loss/duplication.  After every
action the fabric settles behind the quiescence barrier; at every
*stable* point (no active partition, no crashed switch) the paper's
correctness conditions are re-asserted -- the whole contract of
:mod:`repro.core.invariants`, settled, plus its live-only rider: every
previously-restarted switch holds a complete LSDB, rebuilt by the resync
protocol alone (``seed_converged_lsdb`` is never called after boot;
restarts go through ``LiveFabric.restart``).

The schedule is a pure function of the seed, so a failing soak replays
exactly with ``repro chaos --seed N``.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.events import JoinEvent, LeaveEvent, LinkEvent
from repro.core.invariants import Violation, check_invariants, check_lsdb_complete
from repro.core.protocol import ProtocolConfig
from repro.net.fabric import LiveConfig, LiveFabric, QuiescenceTimeout
from repro.net.faults import FaultPlan
from repro.net.transport import RetransmitPolicy
from repro.obs import flight
from repro.obs.merge import export_host_traces, merge_traces
from repro.obs.tracer import RingBufferSink, Tracer, use_tracer
from repro.topo.generators import waxman_network


@dataclass(frozen=True)
class ChaosAction:
    """One scheduled fault or churn event."""

    #: crash | restart | partition | heal | join | leave | race
    kind: str
    #: Switch id for crash/restart/join/leave/race (-1 otherwise).
    target: int = -1
    #: Partition groups (partition only).
    groups: Tuple[Tuple[int, ...], ...] = ()

    def describe(self) -> str:
        if self.kind == "partition":
            return "partition" + "|".join(
                ",".join(str(x) for x in g) for g in self.groups
            )
        if self.kind == "heal":
            return "heal"
        return f"{self.kind} {self.target}"


@dataclass(frozen=True)
class ChaosSettings:
    """Everything that parameterises one soak (all seeded/deterministic)."""

    switches: int = 12
    seed: int = 1996
    #: Scheduled fault/churn actions (cleanup restarts/heal come on top).
    actions: int = 20
    loss: float = 0.10
    duplicate_rate: float = 0.02
    #: Probability a frame is held back ~50ms so later frames overtake
    #: it -- the dial that turns the ``race`` action's same-source
    #: leave-then-link LSA pair into a genuine in-flight reordering.
    reorder: float = 0.0
    hello_interval: float = 0.05
    #: 8 hello intervals: at 10% loss a false death needs 8 consecutive
    #: losses (~1e-8), while a real one is declared in 0.4s.
    dead_interval: float = 0.40
    quiesce_timeout: float = 60.0
    connection_id: int = 1
    #: Directory for causal trace artifacts: per-host JSONL traces plus
    #: one merged cross-host Chrome trace (None = tracing off).
    trace_dir: Optional[str] = None
    #: Directory the flight recorder dumps ``FLIGHT_*.json`` into on any
    #: invariant violation or quiescence timeout (None = recorder off).
    flight_dir: Optional[str] = None
    #: Run the soak with the membership-ordering vector M ablated -- a
    #: *deliberately broken* protocol, used to demonstrate that a real
    #: violation produces a replayable flight-recorder artifact.
    ablate_member_stamp: bool = False
    #: Run with fast reroute enabled: backup fragments precompute at
    #: install, activate on local failure detection, and must reconcile
    #: byte-identically once the repair cycle converges (the stable-point
    #: checks assert the exact same invariants either way).
    frr: bool = False

    def live_config(self) -> LiveConfig:
        # A tight retransmit budget (8 attempts, ~0.55s) so frames sent
        # into a cut or a crashed switch are abandoned quickly instead of
        # wedging the quiescence barrier; at 10% loss the abandonment
        # probability for a *deliverable* frame is ~1e-8.
        return LiveConfig(
            faults=FaultPlan(
                loss=self.loss,
                reorder=self.reorder,
                duplicate_rate=self.duplicate_rate,
                seed=self.seed,
            ),
            policy=RetransmitPolicy(rto=0.01, rto_max=0.1, max_attempts=8),
            hello_interval=self.hello_interval,
            dead_interval=self.dead_interval,
            quiesce_timeout=self.quiesce_timeout,
        )


def build_schedule(
    n: int, rng: random.Random, count: int, initial_members: Set[int]
) -> List[ChaosAction]:
    """A feasible seeded schedule of ``count``-plus actions.

    Feasibility is tracked while drawing (never restart a live switch,
    never stack partitions, keep at least two members, bound simultaneous
    crashes); a crash+restart cycle, a partition+heal cycle, and a
    membership/link ``race`` are guaranteed (appended if the draw missed
    them), and cleanup actions restore every switch and heal any
    partition so the soak ends at a stable point.
    """
    actions: List[ChaosAction] = []
    crashed: Set[int] = set()
    partitioned = False
    roster = set(initial_members)
    max_down = max(1, n // 4)

    def pick_partition() -> ChaosAction:
        k = rng.randint(2, n - 2)
        side = sorted(rng.sample(range(n), k))
        rest = sorted(set(range(n)) - set(side))
        return ChaosAction("partition", groups=(tuple(side), tuple(rest)))

    for _ in range(count):
        kinds: List[str] = []
        live = [x for x in range(n) if x not in crashed]
        joinable = [x for x in live if x not in roster]
        leavable = [x for x in roster if x in live]
        if len(crashed) < max_down:
            kinds += ["crash"] * 3
        if crashed:
            kinds += ["restart"] * 3
        if partitioned:
            kinds += ["heal"] * 3
        elif n >= 4:  # a partition needs two groups of >= 2
            kinds += ["partition"] * 2
        if joinable:
            kinds += ["join"] * 4
        if len(leavable) > 2:
            kinds += ["leave"] * 2
            if not partitioned:
                kinds += ["race"] * 2
        kind = rng.choice(kinds)
        if kind == "crash":
            target = rng.choice(live)
            crashed.add(target)
            actions.append(ChaosAction("crash", target))
        elif kind == "restart":
            target = rng.choice(sorted(crashed))
            crashed.discard(target)
            actions.append(ChaosAction("restart", target))
        elif kind == "partition":
            partitioned = True
            actions.append(pick_partition())
        elif kind == "heal":
            partitioned = False
            actions.append(ChaosAction("heal"))
        elif kind == "join":
            target = rng.choice(joinable)
            roster.add(target)
            actions.append(ChaosAction("join", target))
        else:  # leave / race (a race is a leave plus an adjacent link flap)
            target = rng.choice(sorted(leavable))
            roster.discard(target)
            actions.append(ChaosAction(kind, target))

    # Guarantee the acceptance-critical cycles.
    kinds_seen = {a.kind for a in actions}
    if "race" not in kinds_seen:
        # The reorder hazard must fire at least once per soak: a leave
        # racing its own tree-edge failure (the stress suite's
        # membership-race shape, live).  Heal/grow first if needed so
        # the race fires on an unpartitioned fabric with >= 2 members
        # left behind.
        if partitioned:
            actions.append(ChaosAction("heal"))
            partitioned = False
        live = [x for x in range(n) if x not in crashed]
        candidates = sorted(x for x in roster if x not in crashed)
        joinable = [x for x in live if x not in roster]
        while len(candidates) <= 2 and joinable:
            target = joinable.pop(rng.randrange(len(joinable)))
            roster.add(target)
            candidates.append(target)
            actions.append(ChaosAction("join", target))
        if len(candidates) > 2:
            target = rng.choice(sorted(candidates))
            roster.discard(target)
            actions.append(ChaosAction("race", target))
    if "crash" not in kinds_seen or "restart" not in kinds_seen:
        live = [x for x in range(n) if x not in crashed]
        target = rng.choice(live)
        actions.append(ChaosAction("crash", target))
        actions.append(ChaosAction("restart", target))
    if "partition" not in kinds_seen and n >= 4:
        if partitioned:
            actions.append(ChaosAction("heal"))
        actions.append(pick_partition())
        partitioned = True

    # Cleanup: end at a stable point (everything healed and live).
    if partitioned:
        actions.append(ChaosAction("heal"))
    for x in sorted(crashed):
        actions.append(ChaosAction("restart", x))
    return actions


@dataclass
class ChaosReport:
    """Outcome of one soak."""

    settings: ChaosSettings
    schedule: List[str]
    #: Stable-point invariant checks that ran / the violations they found.
    checks: int = 0
    violations: List[str] = field(default_factory=list)
    #: Stable invariant names of the violations, in the same order (see
    #: :data:`repro.core.invariants.ALL_INVARIANTS`, plus the live-only
    #: ``quiescence-timeout`` liveness verdict); the CLI reports these.
    violation_names: List[str] = field(default_factory=list)
    #: Switches that were crashed and cold-restarted at least once.
    restarted: List[int] = field(default_factory=list)
    crash_count: int = 0
    partition_count: int = 0
    final_members: Tuple[int, ...] = ()
    counters: Dict[str, float] = field(default_factory=dict)
    prom: str = ""
    #: Per-host JSONL traces written when ``trace_dir`` was set.
    trace_files: List[str] = field(default_factory=list)
    #: The merged cross-host Chrome trace ("" = tracing was off).
    merged_trace: str = ""
    #: Flight-recorder artifacts written during this soak.
    flight_files: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and self.checks > 0

    def summary_lines(self) -> List[str]:
        lines = [
            f"chaos soak: {len(self.schedule)} actions on "
            f"{self.settings.switches} switches (seed {self.settings.seed})",
            f"crashes: {self.crash_count}  partitions: {self.partition_count}  "
            f"restarted switches: {self.restarted}",
            f"stable-point checks: {self.checks}  violations: "
            f"{len(self.violations)}",
            f"final members: {list(self.final_members)}",
            f"agreement: {self.ok}",
        ]
        lines.extend(f"  VIOLATION {v}" for v in self.violations)
        return lines


def _record_violations(
    report: ChaosReport,
    found: List[Violation],
    fabric: Optional[LiveFabric] = None,
) -> None:
    for v in found:
        report.violations.append(v.describe())
        report.violation_names.append(v.invariant)
    if found and fabric is not None:
        cfg = report.settings
        flight.dump_on_violation(
            f"chaos-{found[0].invariant}",
            {
                "seed": cfg.seed,
                "switches": cfg.switches,
                "actions": cfg.actions,
                "loss": cfg.loss,
                "duplicate_rate": cfg.duplicate_rate,
                "reorder": cfg.reorder,
                "ablate_member_stamp": cfg.ablate_member_stamp,
                "frr": cfg.frr,
                "replay": (
                    f"repro chaos --switches {cfg.switches} "
                    f"--actions {cfg.actions} --seed {cfg.seed} "
                    f"--loss {cfg.loss} --duplicate-rate {cfg.duplicate_rate}"
                    + (f" --reorder {cfg.reorder}" if cfg.reorder else "")
                    + (" --disable-m-vector" if cfg.ablate_member_stamp else "")
                    + (" --frr" if cfg.frr else "")
                ),
                "schedule": report.schedule,
                "violations": [v.describe() for v in found],
            },
            registry=fabric.metrics,
        )


def _stable_invariants(
    fabric: LiveFabric, connection_id: int, context: str
) -> List[Violation]:
    """The shared contract at a stable point, plus ``lsdb-complete``."""
    return check_invariants(
        connection_id,
        fabric.states_for(connection_id),
        fabric.net,
        fabric.install_log,
        settled=True,
        context=context,
    ) + check_lsdb_complete(
        {
            x: host.router.lsdb
            for x, host in fabric.hosts.items()
            if fabric.generations[x] > 1
        },
        context,
    )


async def run_chaos_soak(settings: Optional[ChaosSettings] = None) -> ChaosReport:
    """Execute one seeded soak end to end and return its report."""
    cfg = settings or ChaosSettings()
    rng = random.Random(cfg.seed)
    net = waxman_network(cfg.switches, rng)
    initial = set(rng.sample(range(cfg.switches), min(4, cfg.switches)))
    schedule = build_schedule(cfg.switches, rng, cfg.actions, initial)
    report = ChaosReport(settings=cfg, schedule=[a.describe() for a in schedule])
    report.crash_count = sum(1 for a in schedule if a.kind == "crash")
    report.partition_count = sum(1 for a in schedule if a.kind == "partition")

    fabric = LiveFabric(
        net,
        ProtocolConfig(
            ablate_member_stamp=cfg.ablate_member_stamp,
            enable_frr=cfg.frr,
        ),
        cfg.live_config(),
    )
    fabric.register_symmetric(cfg.connection_id)
    restarted: Set[int] = set()
    # Settling windows: a crash/partition only becomes *observable* after
    # a dead interval of hello silence; a restart/heal only acts on the
    # next hello exchange.  The quiescence barrier then drains whatever
    # those observations set in motion.
    failure_settle = 1.5 * cfg.dead_interval
    recovery_settle = 4.0 * cfg.hello_interval
    tracer: Optional[Tracer] = None
    if cfg.trace_dir:
        tracer = Tracer(enabled=True, process_name=f"chaos-s{cfg.seed}")
        tracer.add_sink(RingBufferSink(200_000))
    previous_recorder = flight.installed_recorder()
    if cfg.flight_dir:
        flight.install_recorder(flight.FlightRecorder(cfg.flight_dir))
    scope = contextlib.ExitStack()
    if tracer is not None:
        scope.enter_context(use_tracer(tracer))
    try:
        await fabric.start()
        for member in sorted(initial):
            fabric.hosts[member].fire_membership(
                JoinEvent(member, cfg.connection_id)
            )
            await fabric.quiesce()
        for action in schedule:
            if action.kind == "crash":
                await fabric.crash(action.target)
                await asyncio.sleep(failure_settle)
            elif action.kind == "restart":
                await fabric.restart(action.target)
                restarted.add(action.target)
                await asyncio.sleep(recovery_settle)
            elif action.kind == "partition":
                fabric.partition([list(g) for g in action.groups])
                await asyncio.sleep(failure_settle)
            elif action.kind == "heal":
                fabric.heal_partition()
                await asyncio.sleep(recovery_settle)
            elif action.kind == "join":
                fabric.hosts[action.target].fire_membership(
                    JoinEvent(action.target, cfg.connection_id)
                )
            elif action.kind == "race":
                # The stress suite's membership-race shape, live: the
                # leaving switch detects one of its own installed-tree
                # edges failing immediately after the leave, so the same
                # source floods a membership LSA (event k) and a link
                # LSA (event k+1) back-to-back with no barrier between
                # them.  Under injected loss/reorder the link LSA can
                # overtake the leave at a receiver; the M vector is what
                # keeps the reordered leave applied (--disable-m-vector
                # turns this action into a divergence detonator).
                x = action.target
                state = fabric.hosts[x].switch.states.get(cfg.connection_id)
                edge = None
                if state is not None and state.installed is not None:
                    for u, v in sorted(state.installed.all_edges()):
                        other = v if u == x else u if v == x else None
                        if other is not None and other not in fabric.crashed:
                            edge = (u, v)
                            break
                fabric.hosts[x].fire_membership(
                    LeaveEvent(x, cfg.connection_id)
                )
                if edge is not None:
                    fabric.fire_event(LinkEvent(x, edge[0], edge[1], up=False))
                    await fabric.quiesce()
                    fabric.fire_event(LinkEvent(x, edge[0], edge[1], up=True))
            else:  # leave
                fabric.hosts[action.target].fire_membership(
                    LeaveEvent(action.target, cfg.connection_id)
                )
            await fabric.quiesce()
            if not fabric.partitioned and not fabric.crashed:
                report.checks += 1
                _record_violations(
                    report,
                    _stable_invariants(
                        fabric, cfg.connection_id, f"after [{action.describe()}]"
                    ),
                    fabric,
                )
        # Final settle: one extra recovery window so late link-up floods
        # and snapshot gossip fully drain before the last verdict.
        await asyncio.sleep(recovery_settle)
        await fabric.quiesce()
        report.checks += 1
        _record_violations(
            report, _stable_invariants(fabric, cfg.connection_id, "final"),
            fabric,
        )
        states = fabric.states_for(cfg.connection_id)
        if states:
            report.final_members = tuple(sorted(states[min(states)].members))
        report.restarted = sorted(restarted)
        report.counters = fabric.counters()
        report.prom = fabric.metrics.to_prometheus()
    except QuiescenceTimeout as exc:
        # A wedged barrier is a *liveness* violation, not a harness
        # crash: an ablated protocol can livelock on conflicting
        # re-proposals instead of diverging at a stable point.  The
        # fabric already dumped a flight-recorder artifact from inside
        # quiesce(); report the verdict instead of dying mid-soak.
        report.violations.append(f"liveness: {exc}")
        report.violation_names.append("quiescence-timeout")
        report.restarted = sorted(restarted)
        report.counters = fabric.counters()
        report.prom = fabric.metrics.to_prometheus()
    finally:
        await fabric.shutdown()
        # Artifact export runs even when the soak died mid-schedule (a
        # quiescence timeout is exactly when the trace matters most).
        if tracer is not None and cfg.trace_dir:
            report.trace_files = export_host_traces(
                tracer, cfg.trace_dir, prefix=f"chaos_s{cfg.seed}"
            )
            if report.trace_files:
                merged = os.path.join(
                    cfg.trace_dir, f"chaos_s{cfg.seed}_merged_trace.json"
                )
                merge_traces(report.trace_files, out_path=merged)
                report.merged_trace = merged
        if cfg.flight_dir:
            recorder = flight.installed_recorder()
            if recorder is not None:
                report.flight_files = list(recorder.dumps)
            if previous_recorder is not None:
                flight.install_recorder(previous_recorder)
            else:
                flight.uninstall_recorder()
        scope.close()
    return report


def run_chaos_soak_sync(settings: Optional[ChaosSettings] = None) -> ChaosReport:
    """Synchronous wrapper (CLI / test entry point)."""
    return asyncio.run(run_chaos_soak(settings))
