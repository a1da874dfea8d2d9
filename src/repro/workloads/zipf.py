"""Zipf-popularity group churn interleaved with datagram batches.

The data-plane study needs traffic that looks like real multipoint usage:
a few very popular connections carry most of the datagrams and most of
the membership churn, with a long tail of small groups.  This module
generates that workload -- group popularity is Zipf-distributed with
exponent ``s``, and popularity drives *both* the group's member count and
its share of churn events and traffic -- plus the machinery to replay it:

* :func:`zipf_churn_workload` -- a deterministic, feasibility-checked
  schedule of churn phases interleaved with packet batches,
* :class:`ConvergedGroups` -- converged-state bring-up and churn for
  many-group deployments (1k groups at n=100 switches), bypassing the
  control-plane flood storm while recording installs so compiled
  data-plane state invalidates exactly as under the live protocol,
* :func:`replay_workload` -- drives the batched engine over the workload
  (optionally shadowing a sample of packets through the reference engine
  for an exact delivery-equivalence check),
* :func:`mospf_contrast` -- replays equivalent churn + traffic through
  the MOSPF baseline, where every (source, group) datagram pays a
  data-driven shortest-path computation (the paper's Section 2 contrast).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from random import Random
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.events import JoinEvent, LeaveEvent
from repro.core.protocol import DgmcNetwork
from repro.core.state import McState
from repro.core.timestamp import VectorTimestamp
from repro.dataplane.engine import BatchForwardingEngine
from repro.dataplane.forwarding import DeliveryReport, ForwardingEngine
from repro.dataplane.packet import DeliveryRecord, McPacket


def zipf_weights(groups: int, s: float) -> List[float]:
    """Normalized Zipf(s) popularity weights for group ranks 0..groups-1."""
    if groups <= 0:
        raise ValueError("groups must be positive")
    raw = [(rank + 1) ** -s for rank in range(groups)]
    total = sum(raw)
    return [w / total for w in raw]


@dataclass(frozen=True)
class GroupEvent:
    """One membership churn event (feasible by construction)."""

    group: int
    switch: int
    join: bool


@dataclass(frozen=True)
class PacketBatch:
    """One traffic batch: (source switch, group) per packet."""

    packets: Tuple[Tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.packets)


@dataclass(frozen=True)
class ChurnPhase:
    """Churn events followed by the traffic batches sent after them."""

    events: Tuple[GroupEvent, ...]
    batches: Tuple[PacketBatch, ...]


@dataclass(frozen=True)
class ZipfWorkload:
    """A complete churn-and-traffic schedule over many groups."""

    n: int
    groups: int
    s: float
    #: group -> initial member switches (every group starts with >= 2).
    initial: Tuple[Tuple[int, Tuple[int, ...]], ...]
    phases: Tuple[ChurnPhase, ...]

    @property
    def total_packets(self) -> int:
        return sum(len(b) for p in self.phases for b in p.batches)

    @property
    def total_events(self) -> int:
        return sum(len(p.events) for p in self.phases)

    @property
    def total_batches(self) -> int:
        return sum(len(p.batches) for p in self.phases)

    def initial_members(self) -> Dict[int, FrozenSet[int]]:
        return {g: frozenset(members) for g, members in self.initial}

    def validate(self) -> None:
        """Raise ValueError on an infeasible schedule.

        Feasibility mirrors :class:`repro.workloads.membership`: joins
        only for absent switches, leaves only for present ones, no group
        ever drops below two members (so every tree is non-trivial and
        no connection is destroyed mid-run), and every packet's source
        is a current member of its group.
        """
        members = {g: set(m) for g, m in self.initial}
        for g, current in members.items():
            if len(current) < 2:
                raise ValueError(f"group {g} starts with < 2 members")
        for index, phase in enumerate(self.phases):
            for event in phase.events:
                current = members.get(event.group)
                if current is None:
                    raise ValueError(f"phase {index}: unknown group {event.group}")
                if event.join:
                    if event.switch in current:
                        raise ValueError(
                            f"phase {index}: join of present switch {event.switch}"
                        )
                    current.add(event.switch)
                else:
                    if event.switch not in current:
                        raise ValueError(
                            f"phase {index}: leave of absent switch {event.switch}"
                        )
                    if len(current) <= 2:
                        raise ValueError(
                            f"phase {index}: leave would shrink group "
                            f"{event.group} below 2 members"
                        )
                    current.discard(event.switch)
            for batch in phase.batches:
                for source, group in batch.packets:
                    if source not in members.get(group, ()):
                        raise ValueError(
                            f"phase {index}: packet source {source} is not "
                            f"a member of group {group}"
                        )


def zipf_churn_workload(
    n: int,
    groups: int,
    rng: Random,
    *,
    s: float = 1.1,
    phases: int = 3,
    events_per_phase: int = 32,
    batches_per_phase: int = 4,
    batch_size: int = 256,
    max_initial_members: int = 12,
) -> ZipfWorkload:
    """Generate a feasible Zipf churn-and-traffic workload.

    Popularity rank drives initial member count (rank 0 gets
    ``max_initial_members``, the tail gets 2), the probability a churn
    event touches the group, and the group's share of each traffic batch.
    """
    if n < 3:
        raise ValueError("need at least 3 switches")
    weights = zipf_weights(groups, s)
    cumulative = list(accumulate(weights))

    def pick_group() -> int:
        return min(bisect_right(cumulative, rng.random()), groups - 1)

    members: Dict[int, set] = {}
    initial: List[Tuple[int, Tuple[int, ...]]] = []
    top = weights[0]
    for g in range(groups):
        span = max_initial_members - 2
        size = 2 + round(span * (weights[g] / top))
        size = max(2, min(n, size))
        chosen = rng.sample(range(n), size)
        members[g] = set(chosen)
        initial.append((g, tuple(sorted(chosen))))

    phase_list: List[ChurnPhase] = []
    for _ in range(phases):
        events: List[GroupEvent] = []
        for _ in range(events_per_phase):
            g = pick_group()
            current = members[g]
            absent = [x for x in range(n) if x not in current]
            can_join = bool(absent)
            can_leave = len(current) > 2
            if can_join and (not can_leave or rng.random() < 0.5):
                switch = rng.choice(absent)
                current.add(switch)
                events.append(GroupEvent(g, switch, True))
            elif can_leave:
                switch = rng.choice(sorted(current))
                current.discard(switch)
                events.append(GroupEvent(g, switch, False))
        batches: List[PacketBatch] = []
        for _ in range(batches_per_phase):
            packets = []
            for _ in range(batch_size):
                g = pick_group()
                source = rng.choice(sorted(members[g]))
                packets.append((source, g))
            batches.append(PacketBatch(tuple(packets)))
        phase_list.append(ChurnPhase(tuple(events), tuple(batches)))

    workload = ZipfWorkload(n, groups, s, tuple(initial), tuple(phase_list))
    workload.validate()
    return workload


class ConvergedGroups:
    """Converged-state bring-up and churn for many-group deployments.

    Running the full control plane to converge 1k groups takes minutes of
    wall time and -- worse -- hundreds of megabytes of per-switch vector
    state.  A *converged* deployment is definitionally one where every
    switch holds an identical view of each connection, so this seeder
    installs **one shared** :class:`~repro.core.state.McState` object per
    group into every switch.  Each churn event mutates the shared state,
    recomputes the group's topology once (through the network's memoizing
    SPF view, so Dijkstra runs are shared across groups), reinstalls it,
    and appends an install record via the protocol's own hook -- so
    data-plane engines observe the same install-generation signal the
    live protocol produces, and their invalidation fires identically.

    Restriction: only for experiments that dispatch traffic at converged
    points; mixing this seeder with live control-plane activity on the
    same connections would let the shared state and the per-switch
    protocol machinery diverge.
    """

    def __init__(self, dgmc: DgmcNetwork) -> None:
        self.dgmc = dgmc
        #: group -> per-origin event counts (the R vector the stamps carry).
        self._event_counts: Dict[int, VectorTimestamp] = {}

    def seed(self, workload: ZipfWorkload) -> None:
        """Register and install every group at its initial membership."""
        n = self.dgmc.net.n
        if workload.n != n:
            raise ValueError(
                f"workload built for n={workload.n}, network has n={n}"
            )
        adj = self.dgmc.net.spf_view()
        for g, members in workload.initial:
            spec = self.dgmc.register_symmetric(g)
            state = McState(spec, n)
            counts = VectorTimestamp()
            for switch in members:
                state.apply_join(switch, None)
                counts.increment(switch)
            self._event_counts[g] = counts
            topology = state.algorithm.compute(adj, state.members, None)
            proposer = min(members)
            stamp = counts.snapshot()
            state.install(topology, stamp, self.dgmc.sim.now, proposer)
            for x in range(n):
                self.dgmc.switches[x].states[g] = state
            self.dgmc._record_install(proposer, g, stamp, proposer)

    def apply(self, event: GroupEvent) -> None:
        """Apply one churn event: mutate membership, recompute, reinstall."""
        state = self.dgmc.switches[event.switch].states[event.group]
        if event.join:
            state.apply_join(event.switch, None)
        else:
            state.apply_leave(event.switch)
        counts = self._event_counts[event.group]
        counts.increment(event.switch)
        adj = self.dgmc.net.spf_view()
        topology = state.algorithm.compute(adj, state.members, state.installed)
        stamp = counts.snapshot()
        state.install(topology, stamp, self.dgmc.sim.now, event.switch)
        self.dgmc._record_install(event.switch, event.group, stamp, event.switch)


@dataclass
class ReplayResult:
    """Outcome of replaying a workload through the batched engine."""

    packets: int
    batches: int
    events: int
    batched_wall_s: float
    batched_report: DeliveryReport
    #: Reference-engine shadow sample (empty when reference_sample == 0).
    reference_packets: int = 0
    reference_wall_s: float = 0.0
    reference_report: Optional[DeliveryReport] = None
    #: Human-readable descriptions of batched-vs-reference mismatches.
    mismatches: List[str] = field(default_factory=list)

    @property
    def batched_pps(self) -> float:
        return self.packets / self.batched_wall_s if self.batched_wall_s else 0.0

    @property
    def reference_pps(self) -> float:
        if not self.reference_wall_s:
            return 0.0
        return self.reference_packets / self.reference_wall_s

    @property
    def speedup(self) -> float:
        if not self.reference_pps:
            return 0.0
        return self.batched_pps / self.reference_pps

    @property
    def identical_deliveries(self) -> bool:
        return self.reference_packets > 0 and not self.mismatches

    def latencies(self) -> List[float]:
        """All per-receiver delivery latencies seen by the batched engine."""
        out: List[float] = []
        for record in self.batched_report.records:
            for receiver in record.delivered:
                latency = record.latency(receiver)
                if latency is not None:
                    out.append(latency)
        return out


def _record_key(record: DeliveryRecord) -> tuple:
    return (
        record.undeliverable,
        record.intended,
        record.hops,
        record.duplicates,
        record.ttl_drops,
        tuple(sorted(record.delivered.items())),
    )


def replay_workload(
    dgmc: DgmcNetwork,
    workload: ZipfWorkload,
    *,
    hop_delay: Optional[float] = None,
    reference_sample: int = 0,
    batch_spacing: float = 1.0,
) -> ReplayResult:
    """Seed, churn, and dispatch the workload through the batched engine.

    ``reference_sample`` > 0 additionally shadows that many packets
    (spread across batches) through the per-packet reference engine at
    the same injection times and cross-checks every record field --
    the compiled-equals-reference invariant the benchmark gate enforces.
    """
    seeder = ConvergedGroups(dgmc)
    seeder.seed(workload)
    engine = BatchForwardingEngine(dgmc, hop_delay=hop_delay)
    reference = (
        ForwardingEngine(dgmc, hop_delay=hop_delay) if reference_sample else None
    )
    total_batches = workload.total_batches or 1
    per_batch_quota = -(-reference_sample // total_batches)  # ceil
    remaining_sample = reference_sample

    batched_wall = 0.0
    reference_wall = 0.0
    reference_packets = 0
    mismatches: List[str] = []
    events = 0

    for phase in workload.phases:
        for event in phase.events:
            seeder.apply(event)
            events += 1
        for batch in phase.batches:
            at = dgmc.sim.now + batch_spacing
            packets = [McPacket(src, g) for src, g in batch.packets]
            start = perf_counter()
            records = engine.dispatch(packets, at=at)
            batched_wall += perf_counter() - start
            if reference is not None and remaining_sample > 0:
                take = min(per_batch_quota, remaining_sample, len(batch.packets))
                twins = [
                    McPacket(src, g) for src, g in batch.packets[:take]
                ]
                start = perf_counter()
                shadow = [reference.send(p, at=at) for p in twins]
                dgmc.run()
                reference_wall += perf_counter() - start
                reference_packets += take
                remaining_sample -= take
                for ref_record, bat_record in zip(shadow, records[:take]):
                    if _record_key(ref_record) != _record_key(bat_record):
                        mismatches.append(
                            f"flow (src={ref_record.packet.source}, "
                            f"G={ref_record.packet.connection_id}): "
                            f"reference {_record_key(ref_record)} != "
                            f"batched {_record_key(bat_record)}"
                        )

    return ReplayResult(
        packets=workload.total_packets,
        batches=workload.total_batches,
        events=events,
        batched_wall_s=batched_wall,
        batched_report=engine.report,
        reference_packets=reference_packets,
        reference_wall_s=reference_wall,
        reference_report=reference.report if reference is not None else None,
        mismatches=mismatches,
    )


def mospf_contrast(
    net,
    workload: ZipfWorkload,
    *,
    compute_time: float = 1.0,
    per_hop_delay: Optional[float] = None,
) -> Dict[str, float]:
    """Replay the workload's churn and traffic through the MOSPF baseline.

    MOSPF computes a source-rooted tree on first sight of each
    (source, group) pair at each router and flushes caches on every
    membership LSA, so under churny Zipf traffic its data plane keeps
    paying for shortest-path computations that D-GMC performed once at
    install time.  Returns wall-clock and computation counts for the
    benchmark's heavy-traffic contrast row.
    """
    from repro.baselines.mospf import MospfNetwork

    mospf = MospfNetwork(net, compute_time=compute_time, per_hop_delay=per_hop_delay)
    at = 1.0
    for g, members in workload.initial:
        for switch in members:
            mospf.inject(JoinEvent(switch, g), at=at)
            at += 0.1
    mospf.run()

    datagrams = 0
    start = perf_counter()
    for phase in workload.phases:
        for event in phase.events:
            kind = JoinEvent if event.join else LeaveEvent
            mospf.inject(kind(event.switch, event.group), at=mospf.sim.now + 0.5)
            mospf.run()
        for batch in phase.batches:
            at = mospf.sim.now + 1.0
            for source, group in batch.packets:
                mospf.send_datagram(source, group, at=at)
                datagrams += 1
            mospf.run()
    wall = perf_counter() - start

    return {
        "datagrams": float(datagrams),
        "delivered": float(mospf.datagrams_delivered),
        "wall_s": wall,
        "pps": datagrams / wall if wall else 0.0,
        "tree_computations": float(mospf.total_computations()),
        "computations_per_datagram": (
            mospf.total_computations() / datagrams if datagrams else 0.0
        ),
    }
