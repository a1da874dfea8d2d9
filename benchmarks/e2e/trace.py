"""The traced pass: one span stack shared by every layer boundary.

Two sources feed the same stack, so self times nest correctly across
them:

* **wrappers** this module installs at run time by ``setattr`` on the
  public classes and functions listed in :data:`CLASS_TARGETS` and
  :data:`FUNCTION_TARGETS` (removed again by :meth:`Trace.remove`; the
  timed pass refuses to start while any is installed), and
* the repo's own :mod:`repro.obs.tracer` hooks, enabled sink-less by
  installing :class:`BenchTracer` as the process-wide tracer.  They cover
  the work that runs inside kernel-stepped generators (mailbox drains,
  installs, the kernel's own dispatch loop) where no public call
  boundary exists; their categories map onto layers via
  :data:`CATEGORY_LAYER`.

A span's *self* time is its duration minus the spans opened inside it;
a layer's self time is the sum over its spans.  Spans (name, layer,
start, end, parent, round) are kept in memory up to :data:`SPAN_CAP` and
written in Chrome-trace form by :meth:`Trace.write_chrome`; totals keep
accumulating past the cap.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from importlib import import_module
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import tracer as obs_tracer

LAYERS = (
    "sim",
    "core.timestamp",
    "core.switch",
    "trees",
    "lsr.flooding",
    "lsr.spf",
    "lsr.lsdb",
    "frr",
    "core.wire",
    "net.frames",
    "net.transport",
    "net.host",
    "dataplane",
)

#: obs tracer category -> layer.
CATEGORY_LAYER = {
    "kernel": "sim",
    "arbitration": "core.switch",
    "flood": "lsr.flooding",
    "spf": "lsr.spf",
    "net": "net.transport",
    "resync": "net.host",
    "dataplane": "dataplane",
}

#: (layer, module, class, methods).  ``*`` as the class means every
#: concrete subclass of the module's ``TopologyAlgorithm``.
CLASS_TARGETS = (
    ("sim", "repro.sim.kernel", "Simulator", ("run",)),
    ("core.timestamp", "repro.core.timestamp", "VectorTimestamp",
     ("geq", "gt", "merge", "assign", "snapshot")),
    ("core.switch", "repro.core.switch", "DgmcSwitch",
     ("deliver_mc_lsa", "event_handler")),
    ("trees", "repro.trees.algorithms", "*", ("compute",)),
    ("trees", "repro.trees.dynamic", "GreedyDynamicSteiner", ("update",)),
    ("lsr.flooding", "repro.lsr.flooding", "FloodingFabric", ("flood",)),
    ("lsr.spf", "repro.lsr.spfcache", "SpfCache",
     ("sssp", "dag", "routing_table", "prewarm")),
    ("lsr.lsdb", "repro.lsr.lsdb", "LinkStateDatabase",
     ("install", "adjacency")),
    ("lsr.lsdb", "repro.lsr.router", "UnicastRouter", ("receive",)),
    ("net.transport", "repro.net.transport", "UdpTransport", ("send",)),
    ("net.host", "repro.net.host", "LiveSwitch",
     ("ingest", "fire_membership", "fire_link")),
    ("dataplane", "repro.dataplane.engine", "BatchForwardingEngine",
     ("refresh", "dispatch", "invalidate")),
)

#: (layer, defining module, functions).  A function imported by name into
#: other ``repro`` modules is rebound there too.
FUNCTION_TARGETS = (
    ("core.timestamp", "repro.core.timestamp",
     ("stamp_geq", "stamp_gt", "stamp_max")),
    ("lsr.spf", "repro.lsr.spf", ("dag_body",)),
    ("frr", "repro.frr.backup", ("compute_backup_plan",)),
    ("frr", "repro.frr", ("activate_for_edge",)),
    ("core.wire", "repro.core.wire", ("encode_lsa", "decode_lsa")),
    ("net.frames", "repro.net.frames",
     ("encode_data", "encode_ack", "decode_frame")),
)

_MARK = "__e2e_wrapped__"

#: Spans retained for the Chrome trace (about 15 MB of tuples); a 20 s
#: traced pass closes millions, and the totals need none of them.
SPAN_CAP = 40_000


def _target_classes(module_name: str, class_name: str) -> List[type]:
    module = import_module(module_name)
    if class_name != "*":
        return [getattr(module, class_name)]
    found: List[type] = []
    pending = list(module.TopologyAlgorithm.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "compute" in cls.__dict__:
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


def installed_wrappers() -> List[str]:
    """Names of every target currently carrying a wrapper (any Trace's)."""
    found = []
    for _, module_name, class_name, methods in CLASS_TARGETS:
        for cls in _target_classes(module_name, class_name):
            for method in methods:
                if getattr(cls.__dict__.get(method), _MARK, False):
                    found.append(f"{cls.__qualname__}.{method}")
    for _, module_name, functions in FUNCTION_TARGETS:
        module = import_module(module_name)
        for name in functions:
            if getattr(getattr(module, name), _MARK, False):
                found.append(f"{module_name}.{name}")
    return found


class _ObsSpan:
    """Context manager handed to the repo's ``with tracer.span(...)``."""

    __slots__ = ("_trace", "_key", "args")

    def __init__(self, trace: "Trace", key: Tuple[str, str], args: dict) -> None:
        self._trace = trace
        self._key = key
        self.args = args

    def __enter__(self) -> "_ObsSpan":
        self._trace.push(self._key)
        return self

    def __exit__(self, *exc) -> None:
        self._trace.pop()


class BenchTracer(obs_tracer.Tracer):
    """Sink-less tracer routing the repo's spans onto the shared stack."""

    def __init__(self, trace: "Trace") -> None:
        super().__init__(enabled=True)
        self._trace = trace

    def span(self, name, cat="", tid=0, sim_time=None, pid=None, **args):
        trace = self._trace
        if trace.paused:
            return _NULL_SPAN
        if name == "dispatch":
            depth = args.get("queue_depth", 0)
            if depth > trace.counts["sim.queue_depth_max"]:
                trace.counts["sim.queue_depth_max"] = depth
        elif name == "udp_send":
            trace.counts["net.wire_bytes"] += args.get("bytes", 0)
            trace.counts["net.wire_datagrams"] += 1
        layer = CATEGORY_LAYER.get(cat, "sim")
        return _ObsSpan(trace, (layer, name), args)

    def instant(self, name, cat="", tid=0, sim_time=None, pid=None, **args):
        if not self._trace.paused:
            self._trace.counts[f"instant.{name}"] += 1


class _NullSpan:
    __slots__ = ("args",)

    def __init__(self) -> None:
        self.args: dict = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        self.args.clear()


_NULL_SPAN = _NullSpan()


class _SpannedGenerator:
    """Times each resumption of a kernel-stepped generator as a span."""

    __slots__ = ("_gen", "_trace", "_key")

    def __init__(self, gen, trace: "Trace", key: Tuple[str, str]) -> None:
        self._gen = gen
        self._trace = trace
        self._key = key

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        trace = self._trace
        if trace.paused:
            return self._gen.send(value)
        trace.push(self._key)
        try:
            return self._gen.send(value)
        finally:
            trace.pop()

    def throw(self, *exc):
        trace = self._trace
        if trace.paused:
            return self._gen.throw(*exc)
        trace.push(self._key)
        try:
            return self._gen.throw(*exc)
        finally:
            trace.pop()

    def close(self):
        return self._gen.close()


class Trace:
    """Span stack, per-(layer, name) totals, counters, and the wrappers."""

    def __init__(self) -> None:
        #: Open spans: [key, start, children_seconds, span_id].
        self._stack: List[list] = []
        #: (layer, name) -> [calls, inclusive seconds, self seconds].
        self.totals: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        #: Free-form counters bumped by wrapper hooks.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Flooded payloads of the current round: (payload, kind, fanout).
        self.floods: List[Tuple[Any, str, int]] = []
        #: Encoded size of every MC LSA that crossed ``encode_lsa``.
        self.mc_lsa_sizes: List[int] = []
        #: Closed spans: (name, layer, start, end, parent id, round id, id).
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self.round_id = -1
        #: True outside the traced sections (oracle checks, input
        #: generation): wrappers pass straight through.
        self.paused = True
        self._next_id = 0
        self._epoch = perf_counter()
        self._restore: List[Tuple[Any, str, Any]] = []
        self._tracer_cm = None

    # -- the span stack ------------------------------------------------------

    def push(self, key: Tuple[str, str]) -> None:
        self._next_id += 1
        self._stack.append([key, perf_counter(), 0.0, self._next_id])

    def pop(self) -> None:
        end = perf_counter()
        key, start, children, span_id = self._stack.pop()
        duration = end - start
        stack = self._stack
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        total = self.totals[key]
        total[0] += 1
        total[1] += duration
        total[2] += duration - children
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (key[1], key[0], start, end, parent_id, self.round_id, span_id)
            )
        else:
            self.spans_dropped += 1

    def note_encoded(self, lsa: Any, data: bytes) -> None:
        """Size accounting of one encoded LSA (MC LSAs carry a stamp)."""
        stamp = getattr(lsa, "timestamp", None)
        if stamp is not None:
            self.mc_lsa_sizes.append(len(data))
            self.counts["core.wire.mc_bytes"] += len(data)
            self.counts["core.wire.stamp_bytes"] += 4 * len(stamp)

    def _in_layer(self, layer: str) -> bool:
        return bool(self._stack) and self._stack[-1][0][0] == layer

    # -- aggregate views -----------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _), total in self.totals.items():
            out[layer] = out.get(layer, 0.0) + total[2]
        return out

    def calls(self, layer: str, *names: str) -> float:
        return sum(self.totals[(layer, name)][0] for name in names)

    def inclusive_s(self, layer: str, *names: str) -> float:
        return sum(self.totals[(layer, name)][1] for name in names)

    def self_s(self, layer: str, *names: str) -> float:
        return sum(self.totals[(layer, name)][2] for name in names)

    # -- wrapper installation ------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        trace = self
        key = (layer, name)
        push, pop = self.push, self.pop

        def wrapper(*args, **kwargs):
            if trace.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            push(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop()
            if after is not None:
                after(result, args)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, True)
        return wrapper

    def _wrap_generator(self, fn: Callable, layer: str, name: str) -> Callable:
        trace = self
        key = (layer, name)

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if trace.paused:
                return gen
            trace.counts["core.switch.mc_events"] += 1
            return _SpannedGenerator(gen, trace, key)

        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, True)
        return wrapper

    def _hooks(self, layer: str, name: str):
        """The (before, after) counting hooks of one target."""
        counts = self.counts
        if layer == "core.timestamp":
            def before(args):
                # Nested calls (gt -> geq) must not count operands twice.
                if not self._in_layer("core.timestamp"):
                    counts["core.timestamp.components"] += len(args[0])
            return before, None
        if name == "deliver_mc_lsa":
            def before(args):
                if args[1].proposal is not None:
                    counts["core.switch.proposals_received"] += 1
            return before, None
        if name == "flood" and layer == "lsr.flooding":
            def after(record, args):
                self.floods.append(
                    (record.payload, record.kind, len(record.arrivals))
                )
            return None, after
        if name == "compute_backup_plan":
            def after(plan, args):
                counts["frr.fragments"] += len(plan.fragments)
            return None, after
        if name == "activate_for_edge":
            def after(activated, args):
                counts["frr.activations"] += len(activated)
            return None, after
        if name == "encode_lsa":
            def after(data, args):
                self.note_encoded(args[0], data)
            return None, after
        return None, None

    def install(self) -> None:
        """Wrap every target and install the bench tracer."""
        if self._restore or installed_wrappers():
            raise RuntimeError("trace wrappers are already installed")
        for layer, module_name, class_name, methods in CLASS_TARGETS:
            for cls in _target_classes(module_name, class_name):
                for method in methods:
                    original = cls.__dict__[method]
                    if method == "event_handler":
                        wrapped = self._wrap_generator(original, layer, method)
                    else:
                        before, after = self._hooks(layer, method)
                        wrapped = self._wrap(original, layer, method, before, after)
                    setattr(cls, method, wrapped)
                    self._restore.append((cls, method, original))
        for layer, module_name, functions in FUNCTION_TARGETS:
            module = import_module(module_name)
            for name in functions:
                original = getattr(module, name)
                before, after = self._hooks(layer, name)
                wrapped = self._wrap(original, layer, name, before, after)
                for holder in list(sys.modules.values()):
                    holder_name = getattr(holder, "__name__", "")
                    if not holder_name.startswith("repro"):
                        continue
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapped)
                            self._restore.append((holder, attr, original))
        self._tracer_cm = obs_tracer.use_tracer(BenchTracer(self))
        self._tracer_cm.__enter__()

    def remove(self) -> None:
        """Restore every original and the previous process-wide tracer."""
        if self._tracer_cm is not None:
            self._tracer_cm.__exit__(None, None, None)
            self._tracer_cm = None
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        left = installed_wrappers()
        if left:
            raise RuntimeError(f"trace wrappers still installed: {left}")

    # -- export ----------------------------------------------------------------

    def write_chrome(self, path: str, workload: str) -> int:
        """Write the retained spans as Chrome trace JSON; returns how many."""
        lanes = {layer: i for i, layer in enumerate(LAYERS)}
        events: List[dict] = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": f"e2e:{workload}"}},
        ]
        for layer, lane in lanes.items():
            events.append(
                {"name": "thread_name", "ph": "M", "pid": 0, "tid": lane,
                 "args": {"name": layer}}
            )
        for name, layer, start, end, parent, round_id, span_id in self.spans:
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (start - self._epoch) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 0,
                    "tid": lanes.get(layer, len(lanes)),
                    "args": {"id": span_id, "parent": parent, "round": round_id},
                }
            )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "metadata": {
                        "workload": workload,
                        "spans_retained": len(self.spans),
                        "spans_dropped_past_cap": self.spans_dropped,
                    },
                },
                fh,
            )
            fh.write("\n")
        return len(self.spans)
