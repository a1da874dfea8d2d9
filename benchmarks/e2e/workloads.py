"""The five workloads: their sizes, and stationary seeded input generators.

Generators here know nothing about the program under test: they emit
plain tuples (``("J", switch, connection)``, ``("L", ...)`` for joins and
leaves, ``("D", detector, u, v)`` / ``("U", ...)`` for a link going down /
up, ``(source, group)`` for packets) that ``scenarios.py`` turns into the
repo's event objects.  Same seed, same tuples -- the drivers hash the
first rounds into the report so a drifting generator is caught.

Every generator is *stationary*: a leave is always paired with a join (or
steered back toward the target size), so per-round cost does not drift
with the length of the run.  That matters because runs are time-boxed:
a faster commit completes more rounds and must not be measured on a
different membership size than a slower one.

The topology of each workload is fixed (its own constant Waxman seed):
``--seed`` varies who the members are and what happens to them, not the
network being measured, so runs with different seeds stay comparable.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

Event = Tuple  # ("J"|"L", switch, connection) or ("D"|"U", detector, u, v)
Edge = Tuple[int, int]


@dataclass(frozen=True)
class Spec:
    """Static size of one workload (never varies with ``--seed``)."""

    name: str
    kind: str  # churn | linkflap | zipf | live
    why: str
    n: int
    connections: int
    members: int
    #: What one latency sample ("op") is, for the report.
    op: str
    #: Issue-12 names of op_ms_* / throughput_per_s on this workload.
    op_alias: str
    throughput_alias: str
    #: Seed of the fixed Waxman topology.
    topo_seed: int
    frr: bool = False
    #: churn: conflicting leave+join pairs per round.
    pairs: int = 1
    #: Rounds whose event digest and protocol counts must repeat exactly
    #: (the run continues past them until its time box closes).
    prefix_rounds: int = 20
    quick_prefix_rounds: int = 4
    #: Rounds run (and checked) during set-up, before any measurement,
    #: so first-use costs are paid; their time counts as set-up time.
    warmup_rounds: int = 2


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="churn_sparse_n400",
            kind="churn",
            why="n=400, one connection held at 32 members: arbitration at "
            "scale with few originators, so dense n-vector timestamp "
            "compares, mailbox drains and kernel dispatch dominate",
            n=400, connections=1, members=32, pairs=1,
            op="event (round wall / 2 conflicting events)",
            op_alias="event_ms", throughput_alias="events_per_s",
            topo_seed=400_1996, prefix_rounds=20, quick_prefix_rounds=4,
            warmup_rounds=2,
        ),
        Spec(
            name="churn_dense_n64",
            kind="churn",
            why="n=64, four connections held at 48 members: the same layers "
            "with genuinely dense stamps and big trees, where a "
            "sparse-stamp optimisation must read no change",
            n=64, connections=4, members=48, pairs=2,
            op="event (round wall / 4 conflicting events)",
            op_alias="event_ms", throughput_alias="events_per_s",
            topo_seed=64_1996, prefix_rounds=60, quick_prefix_rounds=10,
            warmup_rounds=4,
        ),
        Spec(
            name="linkflap_frr_n60",
            kind="linkflap",
            why="n=60 with fast reroute on, fail then heal an installed tree "
            "edge: the only workload where frr plans, SPF repair, the LSDB "
            "and non-MC flooding do the work",
            n=60, connections=1, members=8, frr=True,
            op="link event (fail+heal cycle wall / 2)",
            op_alias="event_ms", throughput_alias="events_per_s",
            topo_seed=60_1996, prefix_rounds=24, quick_prefix_rounds=4,
            warmup_rounds=1,
        ),
        Spec(
            name="zipf_traffic_n100",
            kind="zipf",
            why="data plane only: 1000 Zipf groups at n=100, 30 churn events "
            "then 8 batches of 4096 packets per phase, so template reads "
            "sit beside invalidate-and-recompile writes",
            n=100, connections=1000, members=12,
            op="dispatch of one 4096-packet batch",
            op_alias="batch_ms", throughput_alias="packets_per_s",
            topo_seed=100_1996, prefix_rounds=4, quick_prefix_rounds=1,
            warmup_rounds=3,
        ),
        Spec(
            name="live_udp_n16",
            kind="live",
            why="LiveFabric over host-loopback UDP, n=16, one connection at "
            "8-12 members: the only workload running the wire codec, "
            "frames, transport and asyncio hosts",
            n=16, connections=1, members=10,
            op="event (fire to last install it causes)",
            op_alias="install_ms", throughput_alias="events_per_s",
            topo_seed=16_1996, prefix_rounds=200, quick_prefix_rounds=40,
            warmup_rounds=20,
        ),
    )
}

#: Zipf phase shape (issue 12): 30 churn events, then 8 x 4096 packets,
#: the first batch of each phase paying the recompile (12.5% of batches,
#: so they own the p90), 12 packets of it shadowed through the oracle.
ZIPF_EVENTS_PER_PHASE = 30
ZIPF_BATCHES_PER_PHASE = 8
ZIPF_BATCH_SIZE = 4096
ZIPF_SHADOW_PER_PHASE = 12
ZIPF_EXPONENT = 1.1

#: Live: one installed-tree-edge fail/heal pair every this many events.
LIVE_FLAP_EVERY = 100
LIVE_MEMBER_SLACK = 2


def _rng(spec: Spec, seed: int) -> Random:
    # String seeds hash through SHA-512: independent of PYTHONHASHSEED.
    return Random(f"{spec.name}:{seed}")


class Digest:
    """SHA-256 over the generated inputs of the prefix rounds."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def add(self, item: object) -> None:
        self._sha.update(repr(item).encode())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _initial_joins(members: Dict[int, Set[int]]) -> List[Event]:
    return [
        ("J", switch, c)
        for c, current in sorted(members.items())
        for switch in sorted(current)
    ]


class ChurnGenerator:
    """Conflicting leave+join pairs, membership pinned at its target."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.rng = _rng(spec, seed)
        self.members: Dict[int, Set[int]] = {
            c: set(self.rng.sample(range(spec.n), spec.members))
            for c in range(1, spec.connections + 1)
        }
        self._turn = 0

    def initial(self) -> List[Event]:
        return _initial_joins(self.members)

    def next_round(self) -> List[Event]:
        """One member leaves, one non-member joins, per pair: all events
        of a round land inside one Tc window, so they conflict."""
        events: List[Event] = []
        for _ in range(self.spec.pairs):
            c = 1 + self._turn % self.spec.connections
            self._turn += 1
            current = self.members[c]
            leaver = self.rng.choice(sorted(current))
            joiner = self.rng.choice(
                [x for x in range(self.spec.n) if x not in current]
            )
            current.discard(leaver)
            current.add(joiner)
            events.append(("L", leaver, c))
            events.append(("J", joiner, c))
        return events


def pick_flap(
    rng: Random,
    connections: Sequence[int],
    turn: int,
    candidates: Callable[[int], List[Edge]],
) -> Optional[Tuple[int, int, int]]:
    """Choose ``(detector, u, v)``: a non-bridge edge of an installed tree.

    ``candidates(c)`` returns connection ``c``'s currently installed tree
    edges that are not bridges (failing a bridge would partition the
    network, which the protocol leaves for further study).  Connections
    are tried in rotation starting at ``turn``; None when no connection
    has a candidate.
    """
    for offset in range(len(connections)):
        c = connections[(turn + offset) % len(connections)]
        edges = candidates(c)
        if edges:
            u, v = rng.choice(edges)
            return rng.choice((u, v)), u, v
    return None


class LinkFlapGenerator:
    """Fail then heal one installed-tree edge per cycle (membership fixed)."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.rng = _rng(spec, seed)
        # Membership never changes in this workload, so who the members
        # are sets the size of every repair for the whole run: it is
        # pinned with the topology, and the seed draws only the flaps.
        pinned = Random(spec.topo_seed)
        self.members: Dict[int, Set[int]] = {
            c: set(pinned.sample(range(spec.n), spec.members))
            for c in range(1, spec.connections + 1)
        }
        self._turn = 0

    def initial(self) -> List[Event]:
        return _initial_joins(self.members)

    def next_cycle(
        self, candidates: Callable[[int], List[Edge]]
    ) -> Tuple[Event, Event]:
        flap = pick_flap(
            self.rng, sorted(self.members), self._turn, candidates
        )
        self._turn += 1
        if flap is None:
            raise RuntimeError("no installed tree has a non-bridge edge")
        detector, u, v = flap
        return ("D", detector, u, v), ("U", detector, u, v)


class LiveGenerator:
    """Membership walk held within +-2 of target, plus periodic flaps."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.rng = _rng(spec, seed)
        self.members: Set[int] = set(
            self.rng.sample(range(spec.n), spec.members)
        )
        self._count = 0
        self._pending_heal: Optional[Event] = None

    def initial(self) -> List[Event]:
        return [("J", switch, 1) for switch in sorted(self.members)]

    def next_event(self, candidates: Callable[[int], List[Edge]]) -> Event:
        self._count += 1
        if self._pending_heal is not None:
            heal, self._pending_heal = self._pending_heal, None
            return heal
        if self._count % LIVE_FLAP_EVERY == 0:
            flap = pick_flap(self.rng, (1,), 0, candidates)
            if flap is not None:
                self._pending_heal = ("U",) + flap
                return ("D",) + flap
        size = len(self.members)
        low = self.spec.members - LIVE_MEMBER_SLACK
        high = self.spec.members + LIVE_MEMBER_SLACK
        join = size <= low or (size < high and self.rng.random() < 0.5)
        if join:
            switch = self.rng.choice(
                [x for x in range(self.spec.n) if x not in self.members]
            )
            self.members.add(switch)
            return ("J", switch, 1)
        switch = self.rng.choice(sorted(self.members))
        self.members.discard(switch)
        return ("L", switch, 1)


class ZipfGenerator:
    """Zipf-popular groups: churn phases interleaved with packet batches.

    Popularity rank drives a group's size (rank 0 gets ``spec.members``,
    the tail gets 2), its share of churn and its share of traffic, as in
    ``repro.workloads.zipf``; unlike that eager generator this one is
    lazy (a time-boxed run does not know how many phases it will need)
    and steers every group back toward its initial size.
    """

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.rng = _rng(spec, seed)
        groups = spec.connections
        raw = [(rank + 1) ** -ZIPF_EXPONENT for rank in range(groups)]
        total = sum(raw)
        weights = [w / total for w in raw]
        self._cumulative = list(accumulate(weights))
        self.members: Dict[int, Set[int]] = {}
        self.target: Dict[int, int] = {}
        for g in range(groups):
            size = 2 + round((spec.members - 2) * (weights[g] / weights[0]))
            size = max(2, min(spec.n, size))
            self.members[g] = set(self.rng.sample(range(spec.n), size))
            self.target[g] = size
        self._sorted: Dict[int, Tuple[int, ...]] = {}

    def initial(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        return tuple(
            (g, tuple(sorted(members)))
            for g, members in sorted(self.members.items())
        )

    def _pick_group(self) -> int:
        return min(
            bisect_right(self._cumulative, self.rng.random()),
            self.spec.connections - 1,
        )

    def next_phase(
        self,
    ) -> Tuple[List[Event], List[List[Tuple[int, int]]]]:
        rng = self.rng
        events: List[Event] = []
        for _ in range(ZIPF_EVENTS_PER_PHASE):
            g = self._pick_group()
            current = self.members[g]
            size, target = len(current), self.target[g]
            join = size < target or (size == target and rng.random() < 0.5)
            if not join and size <= 2:
                join = True  # never shrink a group below two members
            if join:
                switch = rng.choice(
                    [x for x in range(self.spec.n) if x not in current]
                )
                current.add(switch)
                events.append(("J", switch, g))
            else:
                switch = rng.choice(sorted(current))
                current.discard(switch)
                events.append(("L", switch, g))
            self._sorted.pop(g, None)
        batches: List[List[Tuple[int, int]]] = []
        for _ in range(ZIPF_BATCHES_PER_PHASE):
            packets = []
            for _ in range(ZIPF_BATCH_SIZE):
                g = self._pick_group()
                senders = self._sorted.get(g)
                if senders is None:
                    senders = self._sorted[g] = tuple(sorted(self.members[g]))
                packets.append((senders[int(rng.random() * len(senders))], g))
            batches.append(packets)
        return events, batches
