"""Metric declarations (the single source BENCHMARK.json is checked
against) and the arithmetic that turns a traced window into per-layer
numbers.

End-to-end metrics come from the timed pass (tracing off, no wrappers);
per-layer metrics from the traced pass.  Every workload reports every
metric; a layer a workload never enters reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .clock import median, percentile
from .trace import LAYERS, Trace

#: (name, unit, better, bound).  ``op`` is one event on the control
#: workloads (fire -> last install on the live one) and one 4096-packet
#: batch dispatch on the data plane; README.md maps these generic names
#: onto issue 12's per-workload names (event_ms_*, install_ms_*, ...).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("op_ms_p50", "ms", "lower", 0.20),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: (name, unit, better).  The first five are the paper's own per-event
#: figures (Figures 6-8) and the failure share; seeded, they repeat
#: exactly, which is why they are counted over a fixed prefix of rounds.
PROTOCOL_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("computations_per_event", "count", "lower"),
    ("floodings_per_event", "count", "lower"),
    ("ctrl_bytes_per_event", "B", "lower"),
    ("converge_sim_p50", "simtime", "lower"),
    ("fail_share", "ratio", "lower"),
)

LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.kernel_events_per_event", "count", "lower"),
    ("sim.queue_depth_max", "count", "lower"),
    ("core.timestamp.calls_per_event", "count", "lower"),
    ("core.timestamp.components_per_event", "count", "lower"),
    ("core.switch.lsa_deliveries_per_event", "count", "lower"),
    ("core.switch.installs_per_event", "count", "lower"),
    ("core.switch.withdrawn_ratio", "ratio", "lower"),
    ("core.switch.accepted_ratio", "ratio", "higher"),
    ("core.switch.mc_events_per_event", "count", "lower"),
    ("trees.computes_per_event", "count", "lower"),
    ("trees.ms_per_compute", "ms", "lower"),
    ("lsr.flooding.floods_per_event", "count", "lower"),
    ("lsr.flooding.deliveries_per_event", "count", "lower"),
    ("lsr.spf.dijkstra_runs_per_event", "count", "lower"),
    ("lsr.spf.ispf_repairs_per_event", "count", "higher"),
    ("lsr.spf.ispf_fallback_ratio", "ratio", "lower"),
    ("lsr.spf.cache_hit_ratio", "ratio", "higher"),
    ("lsr.spf.dag_builds_per_event", "count", "lower"),
    ("lsr.lsdb.installs_per_event", "count", "lower"),
    ("frr.plans_per_event", "count", "lower"),
    ("frr.ms_per_plan", "ms", "lower"),
    ("frr.inclusive_ms_per_event", "ms", "lower"),
    ("frr.fragments_per_plan", "count", "higher"),
    ("frr.activations_per_event", "count", "higher"),
    ("core.wire.mc_lsa_bytes_p50", "B", "lower"),
    ("core.wire.stamp_bytes_share", "ratio", "lower"),
    ("core.wire.encode_us_per_lsa", "us", "lower"),
    ("core.wire.decode_us_per_lsa", "us", "lower"),
    ("net.frames.encode_us_per_frame", "us", "lower"),
    ("net.frames.decode_us_per_frame", "us", "lower"),
    ("net.transport.datagrams_per_event", "count", "lower"),
    ("net.transport.bytes_per_event", "B", "lower"),
    ("net.transport.retransmit_ratio", "ratio", "lower"),
    ("net.transport.duplicate_ratio", "ratio", "lower"),
    ("net.transport.send_self_ms_per_event", "ms", "lower"),
    ("net.host.ingest_self_ms_per_event", "ms", "lower"),
    ("net.host.fire_self_ms_per_event", "ms", "lower"),
    ("dataplane.dispatch_us_per_packet", "us", "lower"),
    ("dataplane.compile_ms_per_refresh", "ms", "lower"),
    ("dataplane.recompiles_per_churn_event", "count", "lower"),
    ("dataplane.template_hit_ratio", "ratio", "higher"),
    ("dataplane.partial_invalidation_ratio", "ratio", "higher"),
    ("dataplane.reference_us_per_packet", "us", "lower"),
    ("core.state.bytes_per_switch_conn", "B", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    # The speed normalisation, shown to the driver: the median probe
    # slowdown of the pass, and one untraced stretch's op median before
    # and after scaling (their ratio is the factor that was applied).
    ("clock.slowdown_median", "ratio", "lower"),
    ("clock.raw_op_ms_p50", "ms", "lower"),
    ("clock.op_ms_p50", "ms", "lower"),
) + tuple((f"{layer}.self_ms_per_event", "ms", "lower") for layer in LAYERS)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = PROTOCOL_METRICS + LAYER_METRICS

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class Window:
    """Totals over a run of rounds (one pass, or its deterministic prefix)."""

    events: int = 0
    ops: int = 0
    failed: int = 0
    work: int = 0
    busy_raw_s: float = 0.0
    busy_norm_s: float = 0.0
    timed_raw_s: float = 0.0

    def add(self, rnd) -> None:
        self.events += rnd.events
        self.ops += rnd.ops
        self.failed += rnd.failed
        self.work += rnd.work
        self.busy_raw_s += rnd.busy_raw_s
        self.busy_norm_s += rnd.busy_norm_s
        self.timed_raw_s += rnd.timed_raw_s


def end_to_end(
    setups_norm: Sequence[float],
    samples_norm: Sequence[float],
    window: Window,
    peak_rss_mb: float,
) -> Dict[str, float]:
    return {
        "setup_s": median(setups_norm),
        "op_ms_p50": median(samples_norm),
        "op_ms_p90": percentile(samples_norm, 0.90),
        "throughput_per_s": _ratio(window.work, window.busy_norm_s),
        "peak_rss_mb": peak_rss_mb,
    }


def protocol_metrics(
    native: Dict[str, float],
    window: Window,
    ctrl_bytes: float,
    converge: Sequence[float],
) -> Dict[str, float]:
    """The paper's per-event figures over the deterministic prefix
    (``fail_share`` is over the whole pass; the caller adds it)."""
    events = window.events
    return {
        "computations_per_event": _ratio(native["computations"], events),
        "floodings_per_event": _ratio(native["floodings"], events),
        "ctrl_bytes_per_event": _ratio(ctrl_bytes, events),
        "converge_sim_p50": median(converge),
    }


def layer_metrics(
    trace: Trace,
    scenario,
    native: Dict[str, float],
    window: Window,
    traced_samples_norm: Sequence[float],
    reference_samples_norm: Sequence[float],
    bytes_per_switch_conn: float,
) -> Dict[str, float]:
    """Per-layer figures over the whole traced window.

    ``native`` holds counter *deltas* over the window.  Span times are
    raw wall seconds; they are scaled by the window's mean speed factor
    so they read in the same normalised milliseconds as the end-to-end
    metrics.
    """
    events = window.events
    speed = _ratio(window.busy_norm_s, window.busy_raw_s) or 1.0
    counts = trace.counts
    wire = scenario.wire
    live = scenario.spec.kind == "live"

    def per_event(value: float) -> float:
        return _ratio(value, events)

    def ms_per_event(seconds: float) -> float:
        return _ratio(seconds * speed * 1e3, events)

    out: Dict[str, float] = {}
    layer_self = trace.layer_self_s()
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_event"] = ms_per_event(layer_self[layer])

    out["sim.kernel_events_per_event"] = per_event(native["kernel_events"])
    out["sim.queue_depth_max"] = counts["sim.queue_depth_max"]

    ts_names = ("geq", "gt", "merge", "assign", "snapshot",
                "stamp_geq", "stamp_gt", "stamp_max")
    out["core.timestamp.calls_per_event"] = per_event(
        trace.calls("core.timestamp", *ts_names)
    )
    out["core.timestamp.components_per_event"] = per_event(
        counts["core.timestamp.components"]
    )

    installs = native["installs"]
    computed = native["computations"]
    received = counts["core.switch.proposals_received"]
    out["core.switch.lsa_deliveries_per_event"] = per_event(
        trace.calls("core.switch", "deliver_mc_lsa")
    )
    out["core.switch.installs_per_event"] = per_event(installs)
    out["core.switch.withdrawn_ratio"] = _ratio(
        counts["instant.withdraw"], computed
    )
    out["core.switch.accepted_ratio"] = _ratio(
        installs - native["self_installs"], received
    )
    out["core.switch.mc_events_per_event"] = per_event(
        counts["core.switch.mc_events"]
    )

    computes = trace.calls("trees", "compute")
    out["trees.computes_per_event"] = per_event(computes)
    out["trees.ms_per_compute"] = _ratio(
        trace.inclusive_s("trees", "compute") * speed * 1e3, computes
    )

    out["lsr.flooding.floods_per_event"] = per_event(native["floods_all"])
    out["lsr.flooding.deliveries_per_event"] = per_event(native["deliveries"])

    misses = native["spf.misses"]
    out["lsr.spf.dijkstra_runs_per_event"] = per_event(native["spf.dijkstra_runs"])
    out["lsr.spf.ispf_repairs_per_event"] = per_event(native["spf.ispf_repairs"])
    out["lsr.spf.ispf_fallback_ratio"] = _ratio(native["spf.ispf_fallbacks"], misses)
    out["lsr.spf.cache_hit_ratio"] = _ratio(
        native["spf.hits"], native["spf.hits"] + misses
    )
    out["lsr.spf.dag_builds_per_event"] = per_event(trace.calls("lsr.spf", "dag_body"))

    out["lsr.lsdb.installs_per_event"] = per_event(trace.calls("lsr.lsdb", "install"))

    plans = trace.calls("frr", "compute_backup_plan")
    out["frr.plans_per_event"] = per_event(plans)
    out["frr.ms_per_plan"] = _ratio(
        trace.inclusive_s("frr", "compute_backup_plan") * speed * 1e3, plans
    )
    out["frr.inclusive_ms_per_event"] = ms_per_event(
        trace.inclusive_s("frr", "compute_backup_plan", "activate_for_edge")
    )
    out["frr.fragments_per_plan"] = _ratio(counts["frr.fragments"], plans)
    out["frr.activations_per_event"] = per_event(counts["frr.activations"])

    if live:  # real encodes and decodes, timed by the wrappers
        encodes = trace.calls("core.wire", "encode_lsa")
        decodes = trace.calls("core.wire", "decode_lsa")
        encode_s = trace.inclusive_s("core.wire", "encode_lsa")
        decode_s = trace.inclusive_s("core.wire", "decode_lsa")
    else:  # the benchmark's own pricing of each flood, after the round
        encodes = decodes = wire.lsas
        encode_s, decode_s = wire.encode_s, wire.decode_s
    out["core.wire.mc_lsa_bytes_p50"] = median(trace.mc_lsa_sizes)
    out["core.wire.stamp_bytes_share"] = _ratio(
        counts["core.wire.stamp_bytes"], counts["core.wire.mc_bytes"]
    )
    out["core.wire.encode_us_per_lsa"] = _ratio(encode_s * speed * 1e6, encodes)
    out["core.wire.decode_us_per_lsa"] = _ratio(decode_s * speed * 1e6, decodes)

    frame_encodes = trace.calls("net.frames", "encode_data", "encode_ack")
    out["net.frames.encode_us_per_frame"] = _ratio(
        trace.inclusive_s("net.frames", "encode_data", "encode_ack") * speed * 1e6,
        frame_encodes,
    )
    out["net.frames.decode_us_per_frame"] = _ratio(
        trace.inclusive_s("net.frames", "decode_frame") * speed * 1e6,
        trace.calls("net.frames", "decode_frame"),
    )

    sent = native.get("live.sent", 0.0)
    out["net.transport.datagrams_per_event"] = per_event(counts["net.wire_datagrams"])
    out["net.transport.bytes_per_event"] = per_event(counts["net.wire_bytes"])
    out["net.transport.retransmit_ratio"] = _ratio(
        native.get("live.retransmits", 0.0), sent
    )
    out["net.transport.duplicate_ratio"] = _ratio(
        native.get("live.duplicates", 0.0), native.get("live.received", 0.0)
    )
    out["net.transport.send_self_ms_per_event"] = ms_per_event(
        trace.self_s("net.transport", "send", "udp_send")
    )
    out["net.host.ingest_self_ms_per_event"] = ms_per_event(
        trace.self_s("net.host", "ingest")
    )
    out["net.host.fire_self_ms_per_event"] = ms_per_event(
        trace.self_s("net.host", "fire_membership", "fire_link")
    )

    packets = native.get("packets", 0.0)
    out["dataplane.dispatch_us_per_packet"] = _ratio(
        trace.inclusive_s("dataplane", "dispatch") * speed * 1e6, packets
    )
    first, steady = scenario.first_batch_ms, scenario.steady_batch_ms
    out["dataplane.compile_ms_per_refresh"] = (
        max(0.0, median(first) - median(steady)) if first and steady else 0.0
    )
    out["dataplane.recompiles_per_churn_event"] = per_event(
        native.get("compiled_connections", 0.0)
    )
    out["dataplane.template_hit_ratio"] = _ratio(
        native.get("template_hits", 0.0), packets
    )
    out["dataplane.partial_invalidation_ratio"] = _ratio(
        native.get("partial_invalidations", 0.0), native.get("invalidations", 0.0)
    )
    out["dataplane.reference_us_per_packet"] = _ratio(
        scenario.reference_s * speed * 1e6, scenario.reference_packets,
    )

    out["core.state.bytes_per_switch_conn"] = bytes_per_switch_conn
    out["trace.coverage"] = _ratio(sum(layer_self.values()), window.timed_raw_s)
    out["trace.overhead_ratio"] = _ratio(
        median(traced_samples_norm), median(reference_samples_norm)
    )
    return out
