"""Unified instrumentation layer: structured tracing + metrics registry.

Zero-dependency observability spine for the reproduction (see
``docs/observability.md``):

* :mod:`repro.obs.tracer` -- process-wide :data:`~repro.obs.tracer.TRACER`
  emitting span/instant events (sim-time *and* wall-time) to ring-buffer /
  JSONL sinks, exportable as Chrome ``trace_event`` JSON for Perfetto.
* :mod:`repro.obs.metrics` -- :class:`~repro.obs.metrics.MetricsRegistry`
  of counters/gauges/histograms with a Prometheus text dump, snapshot and
  delta APIs, and lazy collectors.
* :mod:`repro.obs.context` -- the compact causal
  :class:`~repro.obs.context.TraceContext` carried inside wire frames so
  flood -> compute -> arbitration -> install is one trace tree across
  hosts.
* :mod:`repro.obs.slo` -- :class:`~repro.obs.slo.SloTracker` turning
  causal chains into convergence histograms (install latency, blackholed
  repair window, resync duration, per-cause control overhead).
* :mod:`repro.obs.flight` -- the failure flight recorder: bounded recent
  history + metrics snapshot dumped as ``FLIGHT_*.json`` the instant an
  invariant breaks.
* :mod:`repro.obs.merge` -- fuse per-host JSONL traces (epoch-aligned
  ``clock_sync`` metadata) into one cross-host Chrome trace.
* :mod:`repro.obs.attach` -- wires a per-network registry onto the
  protocol stacks (SPF cache counters, flood counters, kernel gauges).
* :mod:`repro.obs.profile` -- the per-phase wall-time breakdown behind
  ``python -m repro profile``.
* :mod:`repro.obs.sampler` -- a ``setitimer`` sampling profiler charging
  CPU time to the e2e benchmark's layers (``benchmarks/profile.py``).
* :mod:`repro.obs.timeline` -- merged per-deployment protocol timelines
  and convergence profiles (``python -m repro trace``).

Only the stdlib-only leaves (``metrics``, ``tracer``, ``context``,
``slo``, ``flight``, ``merge``) are imported eagerly, so any module
(including the sim kernel) may import this package without cycles.
``attach``, ``profile`` and ``timeline`` reach back into the protocol
stack and must be imported explicitly, as must ``sampler``.
"""

from repro.obs.context import (  # noqa: F401
    CAUSE_CODES,
    CAUSE_NAMES,
    TraceContext,
    TraceContextError,
)
from repro.obs.flight import (  # noqa: F401
    FlightRecorder,
    dump_on_violation,
    install_recorder,
    installed_recorder,
    uninstall_recorder,
)
from repro.obs.merge import (  # noqa: F401
    MergeError,
    export_host_traces,
    merge_traces,
)
from repro.obs.metrics import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    get_registry,
)
from repro.obs.slo import (  # noqa: F401
    SLO_BUCKETS,
    SloTracker,
)
# NOTE: ``TRACER`` itself is deliberately not re-exported -- a from-import
# would bind a stale reference across ``use_tracer`` swaps.  Read it as
# ``repro.obs.tracer.TRACER`` or via :func:`get_tracer`.
from repro.obs.tracer import (  # noqa: F401
    JsonlSink,
    RingBufferSink,
    TraceEvent,
    Tracer,
    get_tracer,
    use_tracer,
)
