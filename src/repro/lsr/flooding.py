"""The simulated flooding fabric.

Flooding in a link-state network is hop-by-hop: a switch that originates or
first receives an LSA forwards it on every other incident up link, and
duplicates are dropped.  The net effect is that a copy reaches every
reachable switch along a *fastest* path.  The fabric simulates exactly that
effect: at flood time it computes, per destination, the earliest arrival
time over the current up-link topology, and hands the id-ordered
``destination -> delay`` map to the transport, which delivers each copy
at its time.

Two timing models are supported, matching the paper's experiments:

* ``per_hop_delay`` set: every hop costs the same fixed time (the paper's
  "per-hop LSA transmission time"); arrival time is ``hops * per_hop_delay``.
* ``per_hop_delay`` unset: each hop costs the link's propagation delay;
  arrival time is the Dijkstra delay distance.

The fabric also keeps the flood counters ("flooding operations per event")
that the evaluation section reports.

How the copies physically travel is the :class:`Transport` seam, defined
here so that the protocol stack imports nothing of the live runtime.  A
flood is one :meth:`Transport.send_flood` call, which by default is one
:meth:`Transport.send` per destination in id order:
:class:`repro.net.transport.UdpTransport` sends each as a datagram and the
systematic explorer's ``StressTransport`` parks each as a branch point.
:class:`KernelTransport` (below) overrides it to schedule one kernel entry
per distinct arrival instant -- a few hop classes per flood, not n - 1
entries -- that delivers to its destinations in id order.
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.lsr import spf
from repro.obs import tracer as obs_tracer
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.sim.kernel import Simulator
from repro.topo.graph import Network

#: Delivery hook signature: (destination switch id, decoded payload).
DeliverFn = Callable[[int, Any], None]


class Transport(abc.ABC):
    """One-way datagram service between switches."""

    @abc.abstractmethod
    def register(self, switch_id: int, handler: DeliverFn) -> None:
        """Install the delivery handler for ``switch_id`` (one per switch)."""

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
    delay``; the entry calls the handlers of the destinations due then, in
    id order.  That is the order of one entry per destination: a
    synchronous flood draws consecutive ``seq``s, so no foreign entry can
    sit between two of its same-instant copies.  The transport itself holds
    nothing, so it is always :attr:`idle`: in-flight deliveries live in the
    kernel and are covered by the simulator's own quiescence check.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._handlers: Dict[int, DeliverFn] = {}

    def register(self, switch_id: int, handler: DeliverFn) -> None:
        if switch_id in self._handlers:
            raise ValueError(f"switch {switch_id} already registered")
        self._handlers[switch_id] = handler

    def has_handler(self, switch_id: int) -> bool:
        return switch_id in self._handlers

    def send(self, src: int, dest: int, payload: Any, delay: float = 0.0) -> None:
        self.send_flood(src, payload, {dest: delay})

    def send_flood(self, src: int, payload: Any, delays: Dict[int, float]) -> None:
        now = self.sim.now
        handlers = self._handlers
        #: arrival instant (the float the heap compares) -> (delay, batch)
        classes: Dict[float, Tuple[float, List[Tuple[DeliverFn, int]]]] = {}
        for dest, delay in delays.items():
            handler = handlers.get(dest)
            if handler is None:
                continue
            at = now + delay
            entry = classes.get(at)
            if entry is None:
                classes[at] = entry = (delay, [])
            entry[1].append((handler, dest))
        for delay, batch in classes.values():
            self.sim.schedule(delay, partial(_deliver_batch, batch, payload))

    @property
    def idle(self) -> bool:
        return True

    @property
    def handler_count(self) -> int:
        return len(self._handlers)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KernelTransport(handlers={len(self._handlers)})"


def _deliver_batch(batch: List[Tuple[DeliverFn, int]], payload: Any) -> None:
    for handler, dest in batch:
        handler(dest, payload)


@dataclass
class FloodDelivery:
    """Record of one flooding operation (for tests and tracing)."""

    origin: int
    kind: str
    start_time: float
    payload: Any
    #: switch -> scheduled arrival time
    arrivals: Dict[int, float] = field(default_factory=dict)


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
        #: Per-origin BFS hop counts, valid for one topology version
        #: (fixed per-hop timing floods one BFS per event otherwise).
        self._hops_cache: Dict[int, Dict[int, int]] = {}
        self._hops_version = -1
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

    def register(self, switch_id: int, deliver: DeliverFn) -> None:
        """Install the delivery hook for ``switch_id`` (one per switch)."""
        self.transport.register(switch_id, deliver)

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
            if self._hops_version != self.net.version:
                self._hops_cache.clear()
                self._hops_version = self.net.version
            hops = self._hops_cache.get(origin)
            if hops is None:
                hops = self.net.hop_distances(origin)
                self._hops_cache[origin] = hops
            return {x: h * self.per_hop_delay for x, h in hops.items()}
        dist, _ = spf.dijkstra(self.net.spf_view(), origin)
        return dist

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
            span.args["fanout"] = len(record.arrivals)
            return record

    def _flood(self, origin: int, payload: Any, kind: str) -> FloodDelivery:
        self.flood_counts[kind] = self.flood_counts.get(kind, 0) + 1
        now = self.sim.now
        has_handler = self.transport.has_handler
        delays = {
            switch: delay
            for switch, delay in sorted(self.arrival_times(origin).items())
            if switch != origin and has_handler(switch)
        }
        arrivals = {switch: now + delay for switch, delay in delays.items()}
        record = FloodDelivery(origin, kind, now, payload, arrivals)
        self.delivery_count += len(delays)
        self.transport.send_flood(origin, payload, delays)
        if self._hops_hist is not None:
            # Deliveries per hop class, observed once each, from the BFS map
            # arrival_times just cached (a zero delay cannot be divided back).
            hops = self._hops_cache[origin]
            for distance, count in Counter(map(hops.__getitem__, delays)).items():
                self._hops_hist.observe(distance, count)
        if self._fanout_hist is not None:
            self._fanout_hist.observe(len(record.arrivals))
        if self.record_history:
            self.history.append(record)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FloodingFabric(floods={self.total_floods}, "
            f"hooks={self.transport.handler_count})"
        )
