"""The failure flight recorder: dump everything the instant something breaks.

A distributed failure is only debuggable if the evidence is captured *at
the moment of the violation* -- by the time a human looks, the retransmit
timers have fired, the hello clocks have moved on, and the interesting
window is gone.  The flight recorder pairs the tracer's bounded ring
buffer (the last N trace events, already being recorded for free) with a
metrics snapshot and caller-supplied replay context, and writes them as
one ``FLIGHT_<reason>_<seq>.json`` artifact.

Integration is via a process-wide hook so violation sites stay decoupled
from recorder lifetime:

* harnesses (``repro chaos``, the stress explorer, the live fabric's
  quiescence barrier) call :func:`dump_on_violation` unconditionally --
  a no-op unless a recorder is installed, and never raising, so the dump
  can never mask the violation it is documenting;
* whoever owns the run (the chaos CLI, a test) installs a
  :class:`FlightRecorder` with :func:`install_recorder` and points it at
  an artifact directory.

The artifact is self-describing: ``reason`` says which invariant broke,
``context`` carries whatever the harness knows about how to replay it
(seed, schedule, settings), ``trace_events`` are Chrome-format dicts
(loadable in Perfetto directly), and ``tracer_epoch_unix`` anchors their
timestamps to the wall clock.
"""

from __future__ import annotations

import json
import os
import re
import time
from typing import Any, Dict, List, Optional

from repro.obs import tracer as obs_tracer
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "FlightRecorder",
    "dump_on_violation",
    "install_recorder",
    "installed_recorder",
    "uninstall_recorder",
]


class FlightRecorder:
    """Write point-in-time failure artifacts into ``directory``.

    The recorder itself holds no event buffer -- it reads the process
    tracer's ring buffer at dump time (the tail ``max_events`` of it),
    which is exactly the "recent past" a flight recorder should hold and
    costs nothing extra while the system is healthy.
    """

    def __init__(self, directory: str = ".", max_events: int = 4096) -> None:
        self.directory = directory
        self.max_events = max_events
        #: Paths of every artifact written, in order.
        self.dumps: List[str] = []
        self._seq = 0

    def dump(
        self,
        reason: str,
        context: Optional[Dict[str, Any]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> str:
        """Write one artifact; returns its path."""
        tracer = obs_tracer.TRACER
        try:
            events = tracer.events()[-self.max_events:]
        except LookupError:  # no ring buffer attached -- dump without events
            events = []
        payload: Dict[str, Any] = {
            "kind": "flight-recorder",
            "version": 1,
            "reason": reason,
            "wall_time_unix": time.time(),
            "tracer_epoch_unix": tracer.epoch_unix,
            "host_pid": tracer.pid,
            "context": context or {},
            "metrics": registry.snapshot() if registry is not None else {},
            "trace_events": [e.to_chrome() for e in events],
        }
        self._seq += 1
        slug = re.sub(r"[^A-Za-z0-9_-]+", "-", reason).strip("-") or "violation"
        path = os.path.join(
            self.directory, f"FLIGHT_{slug}_{self._seq:03d}.json"
        )
        os.makedirs(self.directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=None, sort_keys=True)
            fh.write("\n")
        self.dumps.append(path)
        return path


#: The process-wide recorder violation sites dump through (None = off).
_RECORDER: Optional[FlightRecorder] = None


def install_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Make ``recorder`` the process-wide violation sink."""
    global _RECORDER
    _RECORDER = recorder
    return recorder


def uninstall_recorder() -> None:
    global _RECORDER
    _RECORDER = None


def installed_recorder() -> Optional[FlightRecorder]:
    return _RECORDER


def dump_on_violation(
    reason: str,
    context: Optional[Dict[str, Any]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Optional[str]:
    """Dump through the installed recorder; silent no-op without one.

    Swallows I/O errors deliberately: the caller is in the middle of
    reporting an invariant violation, and a full disk must not turn that
    report into a different exception.
    """
    if _RECORDER is None:
        return None
    try:
        return _RECORDER.dump(reason, context=context, registry=registry)
    except OSError:
        return None
