"""The simulated flooding fabric.

Flooding in a link-state network is hop-by-hop: a switch that originates or
first receives an LSA forwards it on every other incident up link, and
duplicates are dropped.  The net effect is that a copy reaches every
reachable switch along a fewest-hop path.  The fabric simulates exactly that
effect under the paper's cost model: every hop costs the same per-hop LSA
transmission time, so a copy reaches switch ``x`` at ``hops(origin, x) *
per_hop_delay`` over the current up-link topology.

The fabric also keeps the flood counters ("flooding operations per event")
that the evaluation section reports.

**One plan per (origin, up-link state).**  Which copies a flood sends, and
when, depends only on the origin and the up-link topology, so the fabric
builds it once as a :class:`FloodPlan` and reuses it: the destination
switch ids grouped into same-delay classes, ``(delay, (dest, ...))``, plus
the per-hop counts behind the ``flood_hops`` histogram.  Plans are keyed on
:attr:`Network.up_state` -- a heal returns to the plans from before the
failure -- in a table bounded by :func:`~repro.lsr.spfcache.remember`, and
re-read only when ``net.version`` moves, so a cached flood is one dict
lookup plus one ``schedule`` per arrival instant.

**One delivery path.**  A deployment hands the fabric one hook, called as
``hook(dests, payload)`` with the destinations of one class ascending.  By
default each arrival instant of a flood is one kernel entry that calls the
hook once.  A :class:`Transport` replaces the kernel as the carrier: the
systematic explorer's ``StressTransport`` parks each copy as a branch point
and delivers it as a class of one.  The live runtime builds no fabric (its
hosts origin-broadcast over :class:`repro.net.transport.UdpTransport`).

**Order contract.**  The kernel ``seq`` order is that of one entry per
destination: the classes appear in order of their first destination in id
order, destinations ascend inside a class, and a class is one arrival
*instant*, the float ``now + delay`` the heap compares.  A plan groups by
``delay``; two distinct delays that land on one float instant (possible
only at a large ``now``) are merged at send time (:meth:`FloodPlan.instants`).
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.lsr.spfcache import remember
from repro.obs import tracer as obs_tracer
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.sim.kernel import Simulator
from repro.topo.graph import Network

#: A deployment's delivery hook: (the destinations of one class, ascending;
#: payload).
DeliverFn = Callable[[Tuple[int, ...], Any], None]
#: Copies due together: ``(delay, (dest, ...))``, dests ascending.
FloodClass = Tuple[float, Tuple[int, ...]]


def _group_copies(
    copies: Iterable[Tuple[float, int]], now: float = 0.0
) -> Tuple[FloodClass, ...]:
    """Group ``(delay, dest)`` copies, given in ascending ``dest`` order, by
    arrival instant ``now + delay``.

    The classes come out in order of their first destination, each holding
    the delay of that destination; at ``now = 0.0`` the instant is the
    delay itself.
    """
    classes: Dict[float, Tuple[float, List[int]]] = {}
    for delay, dest in copies:
        at = now + delay
        entry = classes.get(at)
        if entry is None:
            classes[at] = entry = (delay, [])
        entry[1].append(dest)
    return tuple([(delay, tuple(dests)) for delay, dests in classes.values()])


class FloodPlan:
    """One flood's copies from one origin over one up-link state.

    ``classes`` groups the destinations by delay (:func:`_group_copies`),
    ``fanout`` counts them, and ``hop_counts`` holds ``(hops, copies)``
    pairs.
    """

    __slots__ = ("classes", "fanout", "hop_counts")

    def __init__(
        self,
        copies: List[Tuple[float, int]],
        hop_counts: Tuple[Tuple[int, int], ...] = (),
    ) -> None:
        self.classes = _group_copies(copies)
        self.fanout = len(copies)
        self.hop_counts = hop_counts

    def copies(self) -> List[Tuple[float, int]]:
        """Every ``(delay, dest)`` copy, in ascending ``dest`` order."""
        return sorted(
            [(delay, dest) for delay, dests in self.classes for dest in dests],
            key=lambda copy: copy[1],
        )

    def instants(self, now: float) -> Tuple[FloodClass, ...]:
        """The classes of a flood sent at ``now``, one per arrival instant:
        :attr:`classes`, regrouped only when two delays land on one float
        ``now + delay``."""
        classes = self.classes
        if len({now + delay for delay, _ in classes}) < len(classes):
            return _group_copies(self.copies(), now)
        return classes


class Transport(abc.ABC):
    """A carrier of floods other than the kernel (see the module docstring)."""

    @abc.abstractmethod
    def send(self, src: int, payload: Any, plan: FloodPlan, hook: DeliverFn) -> None:
        """Carry one flood of ``payload`` from ``src`` along ``plan``,
        delivering through ``hook(dests, payload)``."""


@dataclass
class FloodDelivery:
    """Record of one flooding operation (for tests and tracing)."""

    origin: int
    kind: str
    start_time: float
    payload: Any
    plan: FloodPlan

    @property
    def arrivals(self) -> Dict[int, float]:
        """switch -> scheduled arrival time, derived from the plan on read."""
        start = self.start_time
        return {x: start + delay for delay, x in self.plan.copies()}


class FloodingFabric:
    """Delivers flooded payloads to every reachable switch.

    ``deliver`` is the deployment's one hook; ``flood`` performs one
    flooding operation.  The origin switch does *not* receive its own flood
    (it already acted on the local event), matching the D-GMC algorithms in
    which the flooding switch updates its state before flooding.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        per_hop_delay: float,
        deliver: DeliverFn,
        record_history: bool = False,
        transport: Optional[Transport] = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.per_hop_delay = per_hop_delay
        self.deliver = deliver
        self.record_history = record_history
        #: The carrier: by default one kernel entry per arrival instant.
        self._send = self._schedule if transport is None else transport.send
        #: Total flooding operations initiated, by kind.
        self.flood_counts: Dict[str, int] = {}
        #: Total individual LSA deliveries (diagnostic).
        self.delivery_count = 0
        self.history: list[FloodDelivery] = []
        #: Per-origin flood plans by ``up_state`` (see the module
        #: docstring), so a heal returns to the plans from before the
        #: failure: a link flap would otherwise run one BFS per origin per
        #: event.
        self._plans_by_state: Dict[tuple, Dict[int, FloodPlan]] = {}
        #: The current entry, re-read when ``net.version`` moves.
        self._plans: Dict[int, FloodPlan] = {}
        self._plans_version = -1
        #: Optional per-flood histograms, created by :meth:`bind_metrics`.
        self._fanout_hist: Optional[Histogram] = None
        self._hops_hist: Optional[Histogram] = None

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Observe per-flood fan-out and per-delivery hop counts into
        ``registry``."""
        self._fanout_hist = registry.histogram(
            "flood_fanout",
            "deliveries scheduled per flooding operation",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self._hops_hist = registry.histogram(
            "flood_hops",
            "hop count of each scheduled LSA delivery",
            buckets=(1, 2, 3, 4, 6, 8, 12, 16),
        )

    @property
    def total_floods(self) -> int:
        return sum(self.flood_counts.values())

    def count_for(self, kind: str) -> int:
        return self.flood_counts.get(kind, 0)

    def plan(self, origin: int) -> FloodPlan:
        """The :class:`FloodPlan` of a flood from ``origin`` now."""
        version = self.net.version
        if version != self._plans_version:
            self._plans_version = version
            state = self.net.up_state
            self._plans = self._plans_by_state.get(state)
            if self._plans is None:
                self._plans = {}
                remember(self._plans_by_state, state, self._plans)
        plan = self._plans.get(origin)
        if plan is None:
            plan = self._plans[origin] = self._build_plan(origin)
        return plan

    def _build_plan(self, origin: int) -> FloodPlan:
        hops = self.net.hop_distances(origin)
        dests = [x for x in sorted(hops) if x != origin]
        per_hop = self.per_hop_delay
        # Copies per hop class, from the BFS map itself (a zero delay
        # cannot be divided back).
        counts = Counter([hops[dest] for dest in dests])
        return FloodPlan(
            [(hops[dest] * per_hop, dest) for dest in dests], tuple(counts.items())
        )

    def _schedule(self, src: int, payload: Any, plan: FloodPlan, hook: DeliverFn) -> None:
        """The default carrier: one kernel entry per arrival instant, each
        one hook call."""
        schedule = self.sim.schedule
        for delay, dests in plan.instants(self.sim.now):
            schedule(delay, partial(hook, dests, payload))

    def flood(self, origin: int, payload: Any, kind: str = "lsa") -> FloodDelivery:
        """Perform one flooding operation from ``origin``.

        Sends one copy to every reachable switch (excluding the origin),
        due at its earliest arrival time, and bumps the per-kind flood counter.
        Returns the :class:`FloodDelivery` record.
        """
        tracer = obs_tracer.TRACER
        if not tracer.enabled:
            return self._flood(origin, payload, kind)
        with tracer.span(
            "flood", cat="flood", tid=origin, sim_time=self.sim.now, kind=kind
        ) as span:
            record = self._flood(origin, payload, kind)
            span.args["fanout"] = record.plan.fanout
            return record

    def _flood(self, origin: int, payload: Any, kind: str) -> FloodDelivery:
        self.flood_counts[kind] = self.flood_counts.get(kind, 0) + 1
        plan = self.plan(origin)
        record = FloodDelivery(origin, kind, self.sim.now, payload, plan)
        self.delivery_count += plan.fanout
        self._send(origin, payload, plan, self.deliver)
        if self._hops_hist is not None:
            for distance, count in plan.hop_counts:
                self._hops_hist.observe(distance, count)
        if self._fanout_hist is not None:
            self._fanout_hist.observe(plan.fanout)
        if self.record_history:
            self.history.append(record)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FloodingFabric(floods={self.total_floods})"
