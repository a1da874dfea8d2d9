"""The simulated flooding fabric.

Flooding in a link-state network is hop-by-hop: a switch that originates or
first receives an LSA forwards it on every other incident up link, and
duplicates are dropped.  The net effect is that a copy reaches every
reachable switch along a *fastest* path.  The fabric simulates exactly that
effect: it computes, per destination, the earliest arrival time over the
current up-link topology, and hands the copies to the transport, which
delivers each at its time.

Two timing models are supported, matching the paper's experiments:

* ``per_hop_delay`` set: every hop costs the same fixed time (the paper's
  "per-hop LSA transmission time"); arrival time is ``hops * per_hop_delay``.
* ``per_hop_delay`` unset: each hop costs the link's propagation delay;
  arrival time is the Dijkstra delay distance.

The fabric also keeps the flood counters ("flooding operations per event")
that the evaluation section reports.

**One plan per (origin, up-link state).**  Which copies a flood sends, and
when, depends only on the origin, the up-link topology and the registered
handlers, so the fabric builds it once as a :class:`FloodPlan` and reuses
it: the copies grouped into same-delay classes, ``(delay, ((handler,
dest), ...))``, plus the per-hop counts behind the ``flood_hops``
histogram.  Under per-hop timing the plans are keyed on
``(Network.up_state, handler count)`` -- a heal returns to the plans from
before the failure -- in a table bounded by
:func:`~repro.lsr.spfcache.remember`; under Dijkstra timing (link delays)
on ``Network.version``.  Either is re-read only when ``net.version`` or the
handler count moves, so a cached flood is one dict lookup plus one
``schedule`` per arrival instant.

How the copies physically travel is the :class:`Transport` seam, defined
here so that the protocol stack imports nothing of the live runtime.  A
flood is one :meth:`Transport.send_plan` call, which by default is one
:meth:`Transport.send_flood` over the plan's id-ordered ``delays`` view,
itself one :meth:`Transport.send` per destination in id order:
:class:`repro.net.transport.UdpTransport` sends each as a datagram and the
systematic explorer's ``StressTransport`` parks each as a branch point.
:class:`KernelTransport` (below) overrides it to schedule one kernel entry
per distinct arrival instant -- a few hop classes per flood, not n - 1
entries -- that delivers to its destinations in id order.

**Order contract.**  The kernel ``seq`` order is that of one entry per
destination: the classes appear in order of their first destination in id
order, destinations ascend inside a class, and a class is one arrival
*instant*, the float ``now + delay`` the heap compares.  A plan groups by
``delay``; two distinct delays that land on one float instant (possible
only at a large ``now``) are merged at send time by one pass over the
classes (:meth:`KernelTransport.send_plan`).
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.lsr import spf
from repro.lsr.spfcache import remember
from repro.obs import tracer as obs_tracer
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.sim.kernel import Simulator
from repro.topo.graph import Network

#: Delivery hook signature: (destination switch id, decoded payload).
DeliverFn = Callable[[int, Any], None]
#: One copy's destination as a plan holds it: ``(handler, dest)``.
Binding = Tuple[Optional[DeliverFn], int]
#: A class delivery hook: (the bindings of copies of one payload due
#: together, dests ascending; payload).
DeliverClassFn = Callable[[Tuple[Binding, ...], Any], None]
#: Copies due together: ``(delay, ((handler, dest), ...))``, dests ascending.
FloodClass = Tuple[float, Tuple[Binding, ...]]


def _group_copies(
    copies: Iterable[Tuple[float, Binding]], now: float = 0.0
) -> Tuple[FloodClass, ...]:
    """Group ``(delay, (handler, dest))`` copies, given in ascending
    ``dest`` order, by arrival instant ``now + delay``.

    The classes come out in order of their first destination, each holding
    the delay of that destination; at ``now = 0.0`` the instant is the
    delay itself.
    """
    classes: Dict[float, Tuple[float, List[Binding]]] = {}
    for delay, binding in copies:
        at = now + delay
        entry = classes.get(at)
        if entry is None:
            classes[at] = entry = (delay, [])
        entry[1].append(binding)
    return tuple([(delay, tuple(batch)) for delay, batch in classes.values()])


class FloodPlan:
    """One flood's copies from one origin over one up-link state.

    ``classes`` groups the copies by delay (:func:`_group_copies`),
    ``fanout`` counts them, and ``hop_counts`` holds ``(hops, copies)``
    pairs under per-hop timing (empty otherwise).  :attr:`delays` is the
    id-ordered ``dest -> delay`` view that per-destination transports
    send; it is derived on each read, so a cached plan stores every copy
    once.
    """

    __slots__ = ("classes", "fanout", "hop_counts", "runs")

    def __init__(
        self,
        copies: List[Tuple[float, Binding]],
        hop_counts: Tuple[Tuple[int, int], ...] = (),
    ) -> None:
        self.classes = _group_copies(copies)
        self.fanout = len(copies)
        self.hop_counts = hop_counts
        #: The :class:`KernelTransport` calls that deliver each class, built
        #: on its first send.
        self.runs: Optional[tuple] = None

    @property
    def delays(self) -> Dict[int, float]:
        """``dest -> delay`` in ascending id order."""
        return {dest: delay for delay, (_, dest) in self.copies()}

    def copies(self) -> List[Tuple[float, Binding]]:
        """Every ``(delay, (handler, dest))`` copy, in ascending ``dest`` order."""
        return sorted(
            [(delay, binding) for delay, batch in self.classes for binding in batch],
            key=lambda copy: copy[1][1],
        )


class Transport(abc.ABC):
    """One-way datagram service between switches."""

    @abc.abstractmethod
    def register(self, switch_id: int, handler: DeliverFn) -> None:
        """Install the delivery handler for ``switch_id`` (one per switch)."""

    def register_class(self, switch_id: int, deliver_class: DeliverClassFn) -> None:
        """Name ``switch_id``'s hook for a class of copies due together.

        A transport that carries a class at once (:class:`KernelTransport`)
        calls it once per run of such destinations; the default carries
        each copy through the handler and ignores it.
        """

    @abc.abstractmethod
    def send(self, src: int, dest: int, payload: Any, delay: float = 0.0) -> None:
        """Carry ``payload`` from ``src`` to ``dest``.

        ``delay`` is the modelled propagation latency; the kernel backend
        honours it exactly, the UDP backend substitutes physical latency
        (plus any injected faults).
        """

    def send_flood(self, src: int, payload: Any, delays: Dict[int, float]) -> None:
        """Carry one flood's copies of ``payload``, one per entry of ``delays``.

        ``delays`` maps destination to delay in ascending id order; the
        default is one :meth:`send` per destination in that order.
        """
        for dest, delay in delays.items():
            self.send(src, dest, payload, delay)

    def send_plan(self, src: int, payload: Any, plan: FloodPlan) -> None:
        """Carry the copies of one :class:`FloodPlan`; the default is
        :meth:`send_flood` over the plan's id-ordered ``delays``."""
        self.send_flood(src, payload, plan.delays)

    def bindings(self, dests: List[int]) -> List[Optional[Binding]]:
        """What a :class:`FloodPlan` holds for a copy to each of ``dests``:
        ``None`` for a switch with no handler.  A per-destination transport
        needs no handler there (its copies go through :meth:`send`)."""
        return [(None, x) if self.has_handler(x) else None for x in dests]

    @abc.abstractmethod
    def has_handler(self, switch_id: int) -> bool:
        """Whether a handler is registered for ``switch_id``."""

    @property
    @abc.abstractmethod
    def idle(self) -> bool:
        """No frames in flight *inside the transport* (see subclasses)."""

    @property
    @abc.abstractmethod
    def handler_count(self) -> int:
        """Number of registered delivery handlers."""


class KernelTransport(Transport):
    """Delivery via the discrete-event kernel (the simulator's backend).

    A flood is one kernel entry per distinct arrival instant ``now +
    delay``; the entry delivers to the destinations due then, in id order:
    once per run of them sharing a class hook (:meth:`register_class`; a
    deployment names one for all its switches, so a class is one call),
    else one handler call each.  That is the order of one entry per
    destination: a synchronous flood draws consecutive ``seq``s, so no
    foreign entry can sit between two of its same-instant copies.  A plan
    binds each copy to the ``(handler, dest)`` pair made once at
    :meth:`register`, so plans share those pairs.  The transport itself
    holds nothing in flight, so it is always :attr:`idle`: in-flight
    deliveries live in the kernel and are covered by the simulator's own
    quiescence check.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._bindings: Dict[int, Binding] = {}
        self._class_hooks: Dict[int, DeliverClassFn] = {}

    def register(self, switch_id: int, handler: DeliverFn) -> None:
        if switch_id in self._bindings:
            raise ValueError(f"switch {switch_id} already registered")
        self._bindings[switch_id] = (handler, switch_id)

    def register_class(self, switch_id: int, deliver_class: DeliverClassFn) -> None:
        self._class_hooks[switch_id] = deliver_class

    def has_handler(self, switch_id: int) -> bool:
        return switch_id in self._bindings

    def bindings(self, dests: List[int]) -> List[Optional[Binding]]:
        return list(map(self._bindings.get, dests))

    def send(self, src: int, dest: int, payload: Any, delay: float = 0.0) -> None:
        self.send_flood(src, payload, {dest: delay})

    def send_flood(self, src: int, payload: Any, delays: Dict[int, float]) -> None:
        bindings = self._bindings
        self.send_plan(src, payload, FloodPlan(
            [(delay, bindings[dest]) for dest, delay in delays.items() if dest in bindings]
        ))

    def send_plan(self, src: int, payload: Any, plan: FloodPlan) -> None:
        now = self.sim.now
        classes = plan.classes
        if len({now + delay for delay, _ in classes}) < len(classes):
            # Two delays land on one float instant: regroup by that instant.
            runs = self._runs(_group_copies(plan.copies(), now))
        else:
            runs = plan.runs
            if runs is None:
                runs = plan.runs = self._runs(classes)
        schedule = self.sim.schedule
        for delay, calls in runs:
            schedule(delay, partial(_deliver_batch, calls, payload))

    def _runs(self, classes: Tuple[FloodClass, ...]) -> tuple:
        """Per class, ``(delay, calls)``: one ``(hook, bindings)`` call per
        run of its copies whose switches share a class hook or, lacking
        one, a handler (wrapped to deliver copy by copy).  A class that is
        one run passes the plan's own bindings."""
        hooks = self._class_hooks
        out = []
        for delay, batch in classes:
            runs: List[tuple] = []  # (hook or handler, per copy?, first index)
            for i, (handler, dest) in enumerate(batch):
                hook = hooks.get(dest)
                key = handler if hook is None else hook
                if not runs or runs[-1][0] is not key:
                    runs.append((key, hook is None, i))
            calls = []
            end = len(batch)
            for key, each, first in reversed(runs):
                bindings = batch if len(runs) == 1 else batch[first:end]
                calls.append((partial(_deliver_each, key) if each else key, bindings))
                end = first
            out.append((delay, tuple(reversed(calls))))
        return tuple(out)

    @property
    def idle(self) -> bool:
        return True

    @property
    def handler_count(self) -> int:
        return len(self._bindings)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KernelTransport(handlers={len(self._bindings)})"


def _deliver_batch(calls: tuple, payload: Any) -> None:
    for deliver, bindings in calls:
        deliver(bindings, payload)


def _deliver_each(handler: DeliverFn, bindings: Tuple[Binding, ...], payload: Any) -> None:
    for _, dest in bindings:
        handler(dest, payload)


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
        return {x: start + delay for x, delay in self.plan.delays.items()}


class FloodingFabric:
    """Delivers flooded payloads to every reachable switch.

    ``register`` installs each switch's delivery hook; ``flood`` performs
    one flooding operation.  The origin switch does *not* receive its own
    flood (it already acted on the local event), matching the D-GMC
    algorithms in which the flooding switch updates its state before
    flooding.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        per_hop_delay: Optional[float] = None,
        record_history: bool = False,
        transport: Optional[Transport] = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.per_hop_delay = per_hop_delay
        self.record_history = record_history
        #: Delivery backend; the default schedules handler callbacks on the
        #: simulation kernel (the fabric's historical in-kernel path).
        self.transport: Transport = transport or KernelTransport(sim)
        #: Total flooding operations initiated, by kind.
        self.flood_counts: Dict[str, int] = {}
        #: Total individual LSA deliveries (diagnostic).
        self.delivery_count = 0
        self.history: list[FloodDelivery] = []
        #: Per-origin flood plans by ``(up_state, handler count)`` under
        #: per-hop timing (see the module docstring), so a heal returns to
        #: the plans from before the failure: a link flap would otherwise
        #: run one BFS per origin per event.
        self._plans_by_state: Dict[tuple, Dict[int, FloodPlan]] = {}
        #: The current entry, re-read when ``(net.version, handler count)``
        #: moves.
        self._plans: Dict[int, FloodPlan] = {}
        self._plans_version = (-1, -1)
        #: Optional per-flood histograms, created by :meth:`bind_metrics`.
        self._fanout_hist: Optional[Histogram] = None
        self._hops_hist: Optional[Histogram] = None

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Observe per-flood distributions into ``registry``.

        Fan-out (deliveries per flooding operation) is always recorded;
        per-delivery hop counts only under fixed per-hop timing, where
        they are known without extra SPF work.
        """
        self._fanout_hist = registry.histogram(
            "flood_fanout",
            "deliveries scheduled per flooding operation",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        if self.per_hop_delay is not None:
            self._hops_hist = registry.histogram(
                "flood_hops",
                "hop count of each scheduled LSA delivery",
                buckets=(1, 2, 3, 4, 6, 8, 12, 16),
            )

    def register(
        self,
        switch_id: int,
        deliver: DeliverFn,
        deliver_class: Optional[DeliverClassFn] = None,
    ) -> None:
        """Install the delivery hook for ``switch_id`` (one per switch), and
        optionally its hook for a class of copies due together
        (:meth:`Transport.register_class`)."""
        self.transport.register(switch_id, deliver)
        if deliver_class is not None:
            self.transport.register_class(switch_id, deliver_class)

    @property
    def total_floods(self) -> int:
        return sum(self.flood_counts.values())

    def count_for(self, kind: str) -> int:
        return self.flood_counts.get(kind, 0)

    def arrival_times(self, origin: int) -> Dict[int, float]:
        """Earliest arrival time at each reachable switch for a flood now.

        Evaluated against the network's *current* up-link topology.
        """
        if self.per_hop_delay is not None:
            return self._hop_times(self.net.hop_distances(origin))
        dist, _ = spf.dijkstra(self.net.spf_view(), origin)
        return dist

    def _hop_times(self, hops: Dict[int, int]) -> Dict[int, float]:
        return {x: h * self.per_hop_delay for x, h in hops.items()}

    def plan(self, origin: int) -> FloodPlan:
        """The :class:`FloodPlan` of a flood from ``origin`` now."""
        version = (self.net.version, self.transport.handler_count)
        if version != self._plans_version:
            self._plans_version = version
            if self.per_hop_delay is None:
                self._plans = {}
            else:
                state = (self.net.up_state, version[1])
                self._plans = self._plans_by_state.get(state)
                if self._plans is None:
                    self._plans = {}
                    remember(self._plans_by_state, state, self._plans)
        plan = self._plans.get(origin)
        if plan is None:
            plan = self._plans[origin] = self._build_plan(origin)
        return plan

    def _build_plan(self, origin: int) -> FloodPlan:
        if self.per_hop_delay is None:
            hops = None
            arrivals = self.arrival_times(origin)
        else:
            hops = self.net.hop_distances(origin)
            arrivals = self._hop_times(hops)
        dests = [x for x in sorted(arrivals) if x != origin]
        copies = [
            (arrivals[dest], bound)
            for dest, bound in zip(dests, self.transport.bindings(dests))
            if bound is not None
        ]
        if hops is None:
            return FloodPlan(copies)
        # Copies per hop class, from the BFS map itself (a zero delay
        # cannot be divided back).
        counts = Counter([hops[dest] for _, (_, dest) in copies])
        return FloodPlan(copies, tuple(counts.items()))

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
        self.transport.send_plan(origin, payload, plan)
        if self._hops_hist is not None:
            for distance, count in plan.hop_counts:
                self._hops_hist.observe(distance, count)
        if self._fanout_hist is not None:
            self._fanout_hist.observe(plan.fanout)
        if self.record_history:
            self.history.append(record)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FloodingFabric(floods={self.total_floods}, "
            f"hooks={self.transport.handler_count})"
        )
