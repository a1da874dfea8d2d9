"""Wire a :class:`~repro.obs.metrics.MetricsRegistry` onto a protocol network.

All three protocol stacks (:class:`~repro.core.protocol.DgmcNetwork`,
:class:`~repro.baselines.mospf.MospfNetwork`,
:class:`~repro.baselines.brute_force.BruteForceNetwork`) expose the same
substrate surface -- ``fabric`` (the flooding fabric), ``sim`` (the
kernel) and ``total_computations``.  :func:`attach_network_metrics`
duck-types on that surface, so the metrics plumbing exists exactly once:
it builds the per-network registry and registers one collector per
counter owner -- :func:`repro.lsr.spfcache.collect_spf` for the
process-wide SPF counters, and one for the network's own flood counters
and kernel state.  Callers diff :meth:`MetricsRegistry.snapshot` /
:meth:`~MetricsRegistry.delta` around a phase; nothing else copies a count.

Imports of the protocol stack stay inside functions, keeping
``repro.obs`` importable from the lowest layers.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "attach_network_metrics",
    "attach_stress_metrics",
]

#: Sample names of a network registry: ``spf_*`` from
#: :func:`repro.lsr.spfcache.collect_spf`, the rest from the collector below.
SPF_HITS = "spf_cache_hits_total"
SPF_MISSES = "spf_cache_misses_total"
SPF_INVALIDATIONS = "spf_cache_invalidations_total"
SPF_FULL_RUNS = "spf_cache_full_runs_total"
SPF_ISPF_REPAIRS = "spf_ispf_repairs_total"
SPF_ISPF_FALLBACKS = "spf_ispf_full_fallbacks_total"
SPF_RELAXATIONS = "spf_relaxations_total"
DIJKSTRA_RUNS = "spf_dijkstra_runs_total"
COMPUTATIONS = "computations_total"
FLOOD_OPERATIONS = "flood_operations_total"
LSA_DELIVERIES = "lsa_deliveries_total"
EVENTS_DISPATCHED = "sim_events_dispatched_total"
QUEUE_DEPTH = "sim_queue_depth"
SIM_NOW = "sim_now"

#: Sample names recorded per systematic-exploration run (repro stress).
STRESS_STATES = "stress_states_total"
STRESS_PRUNED = "stress_pruned_total"
STRESS_TRANSITIONS = "stress_transitions_total"
STRESS_COUNTEREXAMPLES = "stress_counterexamples_total"
STRESS_TERMINALS = "stress_terminal_states_total"
STRESS_EXHAUSTIVE = "stress_exhaustive"
STRESS_MAX_DEPTH = "stress_max_depth"


def attach_network_metrics(
    network, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Create (or extend) a registry sampling ``network``'s substrates.

    The returned registry is live: every :meth:`~MetricsRegistry.snapshot`
    / :meth:`~MetricsRegistry.to_prometheus` re-samples the network, so
    callers diff snapshots around a phase instead of threading counters by
    hand.
    """
    reg = registry if registry is not None else MetricsRegistry()

    def _collect(reg: MetricsRegistry) -> None:
        reg.counter(FLOOD_OPERATIONS, "flooding operations initiated, all "
                    "kinds").set_total(network.fabric.total_floods)
        reg.counter(LSA_DELIVERIES, "individual LSA deliveries scheduled "
                    "by the fabric").set_total(network.fabric.delivery_count)
        reg.counter(EVENTS_DISPATCHED, "simulation kernel events "
                    "dispatched").set_total(network.sim.events_dispatched)
        reg.gauge(QUEUE_DEPTH, "pending kernel entries (current-instant "
                  "FIFO + heap)").set(network.sim.queue_depth)
        reg.gauge(SIM_NOW, "current simulated time").set(network.sim.now)
        comps = getattr(network, "total_computations", None)
        if comps is not None:
            reg.counter(COMPUTATIONS, "topology computations performed"
                        ).set_total(comps() if callable(comps) else comps)

    from repro.lsr.spfcache import collect_spf

    reg.register_collector(collect_spf)
    reg.register_collector(_collect)
    return reg


def attach_stress_metrics(
    report, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Record a :class:`~repro.stress.explore.StressReport` in a registry.

    Unlike :func:`attach_network_metrics` this is a point-in-time record
    (the exploration already finished), so the totals are set once rather
    than re-sampled by a collector.  When the caller accumulates several
    scenarios into one registry, counters add up; the ``stress_exhaustive``
    gauge ANDs (drops to 0 as soon as any scenario was not exhausted) and
    ``stress_max_depth`` keeps the maximum.
    """
    reg = registry if registry is not None else MetricsRegistry()
    states = reg.counter(
        STRESS_STATES, "canonical states explored by repro stress"
    )
    pruned = reg.counter(
        STRESS_PRUNED, "already-visited canonical states pruned"
    )
    transitions = reg.counter(
        STRESS_TRANSITIONS, "state transitions executed (replays included)"
    )
    counterexamples = reg.counter(
        STRESS_COUNTEREXAMPLES, "invariant-violating schedules found"
    )
    terminals = reg.counter(
        STRESS_TERMINALS, "terminal (all events fired, quiescent) states"
    )
    snap = reg.snapshot()
    states.set_total(snap.get(STRESS_STATES, 0) + report.states_explored)
    pruned.set_total(snap.get(STRESS_PRUNED, 0) + report.pruned)
    transitions.set_total(snap.get(STRESS_TRANSITIONS, 0) + report.transitions)
    counterexamples.set_total(
        snap.get(STRESS_COUNTEREXAMPLES, 0) + len(report.counterexamples)
    )
    terminals.set_total(snap.get(STRESS_TERMINALS, 0) + report.terminal_states)
    reg.gauge(
        STRESS_EXHAUSTIVE,
        "1 if every recorded exploration exhausted its state space",
    ).set(
        1.0
        if report.exhaustive and snap.get(STRESS_EXHAUSTIVE, 1.0)
        else 0.0
    )
    reg.gauge(STRESS_MAX_DEPTH, "deepest schedule explored").set(
        max(snap.get(STRESS_MAX_DEPTH, 0), report.max_depth_seen)
    )
    return reg
