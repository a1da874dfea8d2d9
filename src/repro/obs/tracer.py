"""Structured event tracing: spans and instants, sim-time and wall-time.

The process-wide :data:`TRACER` is disabled by default; every hot-path
hook is guarded by a single ``TRACER.enabled`` attribute check, so the
instrumented build costs nothing measurable when tracing is off (the
``tracing_overhead`` benchmark in ``benchmarks/regress.py`` gates this).

When enabled, the tracer produces :class:`TraceEvent` records carrying

* ``ts`` / ``dur`` -- **wall** microseconds from a monotonic
  ``perf_counter`` epoch (what Chrome/Perfetto render on the time axis),
* ``sim_ts`` -- the **simulated** time at which the span opened (carried
  in ``args`` on export, since the two clocks are incommensurable),
* ``pid`` / ``tid`` -- logical process/thread ids; by convention ``tid``
  is the switch id for protocol work and 0 for the kernel.

Events flow to pluggable sinks:

* :class:`RingBufferSink` -- bounded in-memory buffer (eviction counted),
* :class:`JsonlSink` -- one Chrome-format JSON object per line, streamed,
* :meth:`Tracer.export_chrome` -- ``{"traceEvents": [...]}`` JSON
  loadable in Perfetto / ``chrome://tracing``.

Spans record what happened and when; for where the CPU time goes use the
sampler (:mod:`repro.obs.sampler`, ``python -m repro profile``), which no
span's own cost biases.

The module is stdlib-only and single-thread oriented (the simulator is
single-threaded); it must stay a leaf import for the sim kernel.
"""

from __future__ import annotations

import json
import os
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, time as unix_time
from typing import Any, Dict, IO, Iterator, List, Optional, Union

__all__ = [
    "TraceEvent",
    "RingBufferSink",
    "JsonlSink",
    "Tracer",
    "TRACER",
    "get_tracer",
    "use_tracer",
    "traced_run",
]


@dataclass
class TraceEvent:
    """One trace record (Chrome phases ``X``/``i``/``M``/``s``/``f``)."""

    name: str
    cat: str
    ph: str  # "X" span, "i" instant, "M" metadata, "s"/"f" flow start/finish
    ts: float  # wall microseconds since the tracer epoch
    dur: float = 0.0  # wall microseconds ("X" only)
    pid: int = 0
    tid: int = 0
    sim_ts: Optional[float] = None
    flow_id: Optional[int] = None  # flow-event binding id ("s"/"f" only)
    args: Dict[str, Any] = field(default_factory=dict)

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON object for this record."""
        out: Dict[str, Any] = {
            "name": self.name,
            "cat": self.cat or "default",
            "ph": self.ph,
            "ts": self.ts,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.ph == "X":
            out["dur"] = self.dur
        elif self.ph == "i":
            out["s"] = "t"  # thread-scoped instant
        elif self.ph in ("s", "f"):
            out["id"] = self.flow_id
            if self.ph == "f":
                out["bp"] = "e"  # bind to the enclosing slice's end
        args = dict(self.args)
        if self.sim_ts is not None:
            args["sim_time"] = self.sim_ts
        if args:
            out["args"] = args
        return out


class RingBufferSink:
    """Keep the newest ``capacity`` events; count what was evicted."""

    def __init__(self, capacity: int = 100_000) -> None:
        self.capacity = capacity
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self.evicted = 0

    def emit(self, event: TraceEvent) -> None:
        if len(self._buffer) == self.capacity:
            self.evicted += 1
        self._buffer.append(event)

    def events(self) -> List[TraceEvent]:
        return list(self._buffer)

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass

    def __len__(self) -> int:
        return len(self._buffer)


class JsonlSink:
    """Stream events as one Chrome-format JSON object per line."""

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._file: IO[str] = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._file = target
            self._owns = False

    def emit(self, event: TraceEvent) -> None:
        self._file.write(json.dumps(event.to_chrome(), sort_keys=True))
        self._file.write("\n")

    def close(self) -> None:
        self._file.flush()
        if self._owns:
            self._file.close()


class _Span:
    """Context manager for one span; measures and emits on exit."""

    __slots__ = ("tracer", "name", "cat", "tid", "pid", "sim_ts", "args", "start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: int,
                 sim_ts: Optional[float], args: Dict[str, Any],
                 pid: Optional[int] = None) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.tid = tid
        self.pid = pid  # None -> the tracer's lane at emit time
        self.sim_ts = sim_ts
        self.args = args
        self.start = 0.0

    def __enter__(self) -> "_Span":
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        tracer = self.tracer
        if tracer._sinks:
            tracer._emit(
                TraceEvent(
                    name=self.name,
                    cat=self.cat,
                    ph="X",
                    ts=(self.start - tracer._epoch) * 1e6,
                    dur=(end - self.start) * 1e6,
                    pid=tracer.pid if self.pid is None else self.pid,
                    tid=self.tid,
                    sim_ts=self.sim_ts,
                    args=self.args,
                )
            )


class Tracer:
    """Span/instant recorder with pluggable sinks."""

    def __init__(self, enabled: bool = False, pid: int = 0,
                 process_name: str = "repro") -> None:
        self.enabled = enabled
        self.pid = pid
        self.process_name = process_name
        self._sinks: List[Any] = []
        self._epoch = perf_counter()
        #: Wall-clock (unix) time of the epoch; the flight recorder writes
        #: it as ``tracer_epoch_unix`` so a dump's timestamps read as wall
        #: time.
        self.epoch_unix = unix_time()
        self.events_emitted = 0

    # -- configuration -----------------------------------------------------

    def add_sink(self, sink: Any) -> Any:
        self._sinks.append(sink)
        return sink

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, cat: str = "", tid: int = 0,
             sim_time: Optional[float] = None, pid: Optional[int] = None,
             **args: Any) -> _Span:
        """A context manager timing one synchronous block.

        Only call when :attr:`enabled` is true (hot paths check the flag
        first and skip the call entirely); spans must not cross simulation
        yields -- wrap synchronous work only.  ``pid`` overrides the
        tracer's lane for this span (multi-host traces put each
        :class:`~repro.net.host.LiveSwitch` in its own lane).
        """
        return _Span(self, name, cat, tid, sim_time, args, pid=pid)

    def instant(self, name: str, cat: str = "", tid: int = 0,
                sim_time: Optional[float] = None, pid: Optional[int] = None,
                **args: Any) -> None:
        """Record a zero-duration event."""
        if not self._sinks:
            return
        self._emit(
            TraceEvent(
                name=name,
                cat=cat,
                ph="i",
                ts=(perf_counter() - self._epoch) * 1e6,
                pid=self.pid if pid is None else pid,
                tid=tid,
                sim_ts=sim_time,
                args=args,
            )
        )

    def flow(self, name: str, ph: str, flow_id: int, cat: str = "",
             tid: int = 0, pid: Optional[int] = None,
             sim_time: Optional[float] = None, **args: Any) -> None:
        """Record a flow event (``ph`` is ``"s"`` start or ``"f"`` finish).

        A matched s/f pair with the same ``flow_id`` renders as a causal
        arrow between the enclosing slices of two lanes -- the cross-host
        propagation fan-out.  The id must be unique per arrow; derive it
        from the :class:`~repro.obs.context.TraceContext` plus the wire
        transfer (see ``TraceContext.flow_id``).
        """
        if ph not in ("s", "f"):
            raise ValueError(f"flow phase must be 's' or 'f', got {ph!r}")
        if not self._sinks:
            return
        self._emit(
            TraceEvent(
                name=name,
                cat=cat,
                ph=ph,
                ts=(perf_counter() - self._epoch) * 1e6,
                pid=self.pid if pid is None else pid,
                tid=tid,
                sim_ts=sim_time,
                flow_id=flow_id,
                args=args,
            )
        )

    @contextmanager
    def lane(self, pid: int):
        """Attribute events emitted in this block to process lane ``pid``.

        The live runtime wraps each host's simulator pump with its switch
        id so every span lands in that host's Perfetto lane.
        """
        previous = self.pid
        self.pid = pid
        try:
            yield self
        finally:
            self.pid = previous

    def _emit(self, event: TraceEvent) -> None:
        self.events_emitted += 1
        for sink in self._sinks:
            sink.emit(event)

    # -- inspection / export -----------------------------------------------

    def _ring(self) -> RingBufferSink:
        for sink in self._sinks:
            if isinstance(sink, RingBufferSink):
                return sink
        raise LookupError("no RingBufferSink attached to this tracer")

    def events(self) -> List[TraceEvent]:
        """Events held by the first ring-buffer sink."""
        return self._ring().events()

    def chrome_trace(self) -> Dict[str, Any]:
        """The Chrome trace dict for the ring-buffered events."""
        ring = self._ring()
        meta = [
            TraceEvent(
                name="process_name", cat="__metadata", ph="M", ts=0.0,
                pid=self.pid, args={"name": self.process_name},
            )
        ]
        trace = {
            "traceEvents": [e.to_chrome() for e in meta + ring.events()],
            "displayTimeUnit": "ms",
        }
        if ring.evicted:
            trace["metadata"] = {"evicted_events": ring.evicted}
        return trace

    def export_chrome(self, path: str) -> int:
        """Write the ring-buffered events as Chrome trace JSON.

        Returns the number of events written (excluding metadata).
        """
        ring = self._ring()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh, indent=None, sort_keys=True)
            fh.write("\n")
        return len(ring)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "on" if self.enabled else "off"
        return f"Tracer({state}, sinks={len(self._sinks)}, emitted={self.events_emitted})"


#: The process-wide tracer every instrumentation hook consults.  Hooks
#: read it as ``tracer_module.TRACER`` (attribute access, not a from-
#: import) so :func:`use_tracer` swaps are visible everywhere.
TRACER = Tracer()


def get_tracer() -> Tracer:
    return TRACER


@contextmanager
def use_tracer(tracer: Tracer):
    """Temporarily install ``tracer`` as the process-wide tracer."""
    global TRACER
    previous = TRACER
    TRACER = tracer
    try:
        yield tracer
    finally:
        TRACER = previous


@contextmanager
def traced_run(trace_dir: Optional[str], prefix: str) -> Iterator[Optional[str]]:
    """Trace the enclosed live run into ``trace_dir`` (no-op when unset).

    Installs a ring-buffered :class:`Tracer` as the process-wide tracer
    for the block and yields the path of the trace it will write,
    ``<prefix>_trace.json`` (``None`` when ``trace_dir`` is unset).  On
    any exit -- an exception included, since a run that dies is the one
    whose trace matters most -- it writes the ring as one Chrome trace:
    each live host emits in its own ``pid`` lane, so ``udp_send`` /
    ``udp_recv`` flow pairs bind across lanes by their shared ids.
    """
    if not trace_dir:
        yield None
        return
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{prefix}_trace.json")
    tracer = Tracer(enabled=True)
    tracer.add_sink(RingBufferSink(200_000))
    try:
        with use_tracer(tracer):
            yield path
    finally:
        tracer.export_chrome(path)
