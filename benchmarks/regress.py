#!/usr/bin/env python
"""Machine-readable benchmark harness with regression gating.

Runs the benchmarks of one ``--mode`` under a wall clock and writes
``BENCH_<mode>.json`` (plus a Chrome trace ``TRACE_<mode>.json`` and a
Prometheus dump ``METRICS_<mode>.prom`` of a small conflict scenario)
that CI parses, gates on and uploads.  Each benchmark is one
:class:`Benchmark` entry in :data:`BENCHMARKS`: its body, the modes that
run it, its invariant check and the baseline keys it is gated on.
``--check`` fails on any invariant violation and on a regression against
the committed ``benchmarks/bench_baseline.json`` (one report per mode);
``--update-baseline`` records this mode's report there unless an
invariant failed.  docs/benchmarking.md ("The regression harness") has
the modes, every gate and the tolerances.

Usage:
    PYTHONPATH=src python benchmarks/regress.py --smoke
    PYTHONPATH=src python benchmarks/regress.py --smoke --check
    PYTHONPATH=src python benchmarks/regress.py --mode ispf --update-baseline
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import random
import sys
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
if str(REPO / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO / "src"))

from repro.core.events import JoinEvent, LeaveEvent, LinkEvent
from repro.core.invariants import canonical_tree_bytes
from repro.core.protocol import DgmcNetwork, ProtocolConfig
from repro.frr import compute_backup_plan
from repro.harness.figures import (
    EXP1_COMPUTE,
    EXP1_PER_HOP,
    _bursty_scenario,
    experiment1,
    experiment2,
)
from repro.lsr import spf, spfcache
from repro.obs import attach
from repro.obs import tracer as obs_tracer
from repro.obs.metrics import REGISTRY as GLOBAL_REGISTRY
from repro.obs.tracer import RingBufferSink, Tracer, use_tracer
from repro.sim.rng import RngRegistry
from repro.topo.generators import waxman_network

SCHEMA = "repro-bench/v1"
DEFAULT_BASELINE = HERE / "bench_baseline.json"

#: Per-mode sweep parameters: (sizes, graphs_per_size).
MODES: Dict[str, tuple] = {
    "quick": ((16,), 1),
    "smoke": ((20, 40), 2),
    # The incremental-SPF invariant gate: small size for breadth, n=100
    # because that is where the acceptance criterion measures the win.
    "ispf": ((20, 100), 1),
    # The live-runtime convergence SLO gate (real sockets, wall clock).
    "convergence_slo": ((12,), 1),
    # The batched-forwarding gate: n=100 is where the >= 10x speedup
    # acceptance criterion measures; the MOSPF contrast runs at the
    # small size (its per-datagram SPF makes large sizes prohibitive).
    "dataplane": ((20, 100), 1),
    # The fast-reroute gate: n=20 satisfies the soak's n >= 20
    # acceptance criterion while keeping the paired FRR-on/off arms
    # deterministic and fast.
    "frr": ((20,), 1),
}

#: Wall time may exceed the baseline by this fraction *or* by
#: :data:`WALL_GRACE_S`, whichever is larger: sub-100ms benchmarks are
#: dominated by scheduler noise, where a purely relative gate would flap.
WALL_TOLERANCE = 0.25
WALL_GRACE_S = 0.2
#: Seeded counters are machine-independent, so their tolerance is tight.
COUNT_TOLERANCE = 0.10
#: Wall latencies (milliseconds): allowed = base * (1 + LATENCY_TOLERANCE)
#: + LATENCY_GRACE_MS.  Loopback UDP latencies swing hard across CI
#: machines, so the gate only catches order-of-magnitude convergence
#: regressions, not jitter.
LATENCY_TOLERANCE = 1.5
LATENCY_GRACE_MS = 150.0


# -- benchmark bodies --------------------------------------------------------


def _hit_rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _sweep_record(rows) -> Dict[str, object]:
    trials = [t for row in rows for t in row.trials]
    hits = sum(t.spf_hits for t in trials)
    misses = sum(t.spf_misses for t in trials)
    return {
        "events": sum(t.events for t in trials),
        "computations": sum(t.computations for t in trials),
        "floodings": sum(t.floodings for t in trials),
        "dijkstra_runs": sum(t.dijkstra_runs for t in trials),
        "spf_hits": hits,
        "spf_misses": misses,
        "spf_invalidations": sum(t.spf_invalidations for t in trials),
        "spf_hit_rate": _hit_rate(hits, misses),
        "all_agreed": all(t.agreed for t in trials),
    }


def bench_exp1_churn(sizes, graphs) -> Dict[str, object]:
    return _sweep_record(experiment1(sizes=sizes, graphs_per_size=graphs))


def bench_exp2_churn(sizes, graphs) -> Dict[str, object]:
    return _sweep_record(experiment2(sizes=sizes, graphs_per_size=graphs))


def _check_agreed(record, top_n: int) -> Iterable[str]:
    if not record["all_agreed"]:
        yield "switches disagreed after quiescence"


def bench_spf_substrate(sizes, graphs) -> Dict[str, object]:
    """Routing tables + repeated path queries on one network image."""
    n = max(sizes)
    net = waxman_network(n, RngRegistry(7).stream("topology"))
    view = net.spf_view()
    snap0 = GLOBAL_REGISTRY.snapshot()
    queries = 0
    for src in net.switches():
        spf.routing_table(view, src)
        for dst in range(0, n, max(1, n // 8)):
            spf.shortest_path(view, src, dst)
            queries += 1
    delta = GLOBAL_REGISTRY.delta(snap0)
    hits = int(delta[attach.SPF_HITS])
    misses = int(delta[attach.SPF_MISSES])
    return {
        "switches": n,
        "path_queries": queries,
        "dijkstra_runs": int(delta[attach.SPF_FULL_RUNS]),
        "spf_hits": hits,
        "spf_misses": misses,
        "spf_hit_rate": _hit_rate(hits, misses),
    }


def _routing_blob(dgmc) -> bytes:
    """Canonical bytes of every switch's unicast next-hop table."""
    tables = [
        (x, sorted(dgmc.routers[x].routing_table().items()))
        for x in sorted(dgmc.routers)
    ]
    return repr(tables).encode()


def _churn_bring_up(n: int, graph: int, seed: int, tag: str) -> tuple:
    """The exp1 bursty scenario on a fresh network, its initial joins injected.

    The scenario is rebuilt deterministically from the seed, so every
    invocation (cache or ISPF on or off) sees byte-identical inputs.
    Returns ``(rng registry, scenario, network, gap)``; the joins run at
    the caller's next ``dgmc.run()``.
    """
    registry = RngRegistry(seed).fork(f"size={n}/graph={graph}")
    scenario = _bursty_scenario(n, graph, registry, EXP1_PER_HOP, EXP1_COMPUTE, tag)
    config = ProtocolConfig(
        compute_time=scenario.compute_time, per_hop_delay=scenario.per_hop_delay
    )
    dgmc = DgmcNetwork(scenario.net, config)
    dgmc.register_symmetric(scenario.connection_id)
    gap = 4.0 * scenario.round_length
    t = gap
    for switch in sorted(scenario.schedule.initial_members):
        dgmc.inject(JoinEvent(switch, scenario.connection_id), at=t)
        t += gap
    return registry, scenario, dgmc, gap


def _run_schedule(dgmc, scenario, t0: float, what: str) -> None:
    """Inject the scenario's joins and leaves from ``t0``, run, require agreement."""
    m = scenario.connection_id
    for ev in scenario.schedule.events:
        event = JoinEvent if ev.join else LeaveEvent
        dgmc.inject(event(ev.switch, m), at=t0 + ev.time)
    dgmc.run()
    agreed, detail = dgmc.agreement(m)
    if not agreed:
        raise AssertionError(f"disagreement in {what}: {detail}")


def _churn_run(n: int, graph: int, seed: int) -> Dict[str, object]:
    """One exp1-style churn trial, counted from bring-up on."""
    _, scenario, dgmc, gap = _churn_bring_up(n, graph, seed, "regress")
    snap0 = GLOBAL_REGISTRY.snapshot()
    dgmc.run()
    _run_schedule(dgmc, scenario, dgmc.sim.now + gap, f"churn run n={n}")
    delta = GLOBAL_REGISTRY.delta(snap0)
    return {
        "dijkstra_runs": int(delta[attach.DIJKSTRA_RUNS]),
        "trees": canonical_tree_bytes(dgmc.states_for(scenario.connection_id)),
        "tables": _routing_blob(dgmc),
        "events": dgmc.sim.events_dispatched,
    }


def _failure_churn_run(n: int, graph: int, seed: int) -> Dict[str, object]:
    """One churn trial with an interleaved link failure/repair campaign.

    This is the workload where incremental SPF must engage: every link
    event floods exactly one changed LSA, so each LSDB sees a single-link
    image delta.  Relaxations and ISPF counters are measured over the
    post-convergence event phase only (bring-up pays the same full
    Dijkstras under either policy).
    """
    from repro.workloads.failures import FailureInjector

    registry, scenario, dgmc, gap = _churn_bring_up(n, graph, seed, "regress-ispf")
    dgmc.run()

    snap0 = GLOBAL_REGISTRY.snapshot()
    injector = FailureInjector(dgmc, registry.stream("failures"))
    horizon = max(
        (ev.time for ev in scenario.schedule.events),
        default=10.0 * scenario.round_length,
    )
    count = max(4, n // 10)
    t0 = dgmc.sim.now + gap
    injector.schedule_campaign(
        t0,
        count,
        mean_gap=horizon / (2.0 * count),
        mean_downtime=2.0 * scenario.round_length,
    )
    _run_schedule(dgmc, scenario, t0, f"failure churn n={n}")
    delta = GLOBAL_REGISTRY.delta(snap0)
    return {
        "relaxations": int(delta[attach.SPF_RELAXATIONS]),
        "ispf_repairs": int(delta[attach.SPF_ISPF_REPAIRS]),
        "ispf_full_fallbacks": int(delta[attach.SPF_ISPF_FALLBACKS]),
        "link_events": injector.failures_injected + injector.repairs_completed,
        "trees": canonical_tree_bytes(dgmc.states_for(scenario.connection_id)),
        "tables": _routing_blob(dgmc),
    }


def _paired_trials(sizes, graphs, trial, seed: int, off) -> List[tuple]:
    """``(trial as shipped, the same trial inside off())`` per size and graph."""
    pairs = []
    for n in sizes:
        for g in range(graphs):
            shipped = trial(n, g, seed=seed)
            with off():
                pairs.append((shipped, trial(n, g, seed=seed)))
    return pairs


def _identical_outputs(pairs) -> Dict[str, bool]:
    return {
        "identical_trees": all(on["trees"] == off["trees"] for on, off in pairs),
        "identical_tables": all(on["tables"] == off["tables"] for on, off in pairs),
    }


def bench_cache_equivalence(sizes, graphs) -> Dict[str, object]:
    """Cached vs uncached churn runs: identical trees, >= 2x fewer Dijkstras."""
    pairs = _paired_trials(sizes, graphs, _churn_run, 1996, spfcache.disabled)
    cached_runs = sum(on["dijkstra_runs"] for on, _ in pairs)
    uncached_runs = sum(off["dijkstra_runs"] for _, off in pairs)
    reduction = uncached_runs / cached_runs if cached_runs else float("inf")
    return {
        "trials": len(pairs),
        "dijkstra_runs_cached": cached_runs,
        "dijkstra_runs_uncached": uncached_runs,
        "dijkstra_reduction": reduction,
        "identical_trees": all(on["trees"] == off["trees"] for on, off in pairs),
    }


def _check_cache_equivalence(eq, top_n: int) -> Iterable[str]:
    if not eq["identical_trees"]:
        yield "cached and uncached runs produced different installed topologies"
    if eq["dijkstra_reduction"] < 2.0:
        yield f"Dijkstra reduction {eq['dijkstra_reduction']:.2f}x < 2.0x"


def bench_tracing_overhead(sizes, graphs) -> Dict[str, object]:
    """The instrumentation must be free when tracing is off.

    Runs the same churn trial with tracing disabled and enabled; its
    entry checks (:func:`_check_tracing_overhead`) that

    * enabling tracing causes **zero** additional Dijkstra runs and
      byte-identical installed topologies,
    * the disabled hook (one ``TRACER.enabled`` attribute check, measured
      by microbenchmark) costs <= 5% of the mean event-dispatch time --
      a machine-stable formulation of "<= 5% wall-time overhead" that
      does not hinge on cross-run timing noise.
    """
    import timeit

    n = min(sizes)
    t0 = time.perf_counter()
    disabled = _churn_run(n, 0, seed=1996)
    wall_disabled = time.perf_counter() - t0

    tracer = Tracer(enabled=True)
    tracer.add_sink(RingBufferSink())
    with use_tracer(tracer):
        t1 = time.perf_counter()
        enabled = _churn_run(n, 0, seed=1996)
        wall_enabled = time.perf_counter() - t1

    # Microbenchmark of the exact disabled hot-path guard.
    reps = 200_000
    hook_s = (
        timeit.timeit(
            "t = obs_tracer.TRACER\nif t.enabled:\n    pass",
            globals={"obs_tracer": obs_tracer},
            number=reps,
        )
        / reps
    )
    events = disabled["events"]
    mean_dispatch_s = wall_disabled / events if events else float("inf")
    return {
        "switches": n,
        "events_dispatched": events,
        "dijkstra_runs_disabled": disabled["dijkstra_runs"],
        "dijkstra_runs_enabled": enabled["dijkstra_runs"],
        "identical_trees": disabled["trees"] == enabled["trees"],
        "wall_disabled_s": round(wall_disabled, 4),
        "wall_enabled_s": round(wall_enabled, 4),
        "enabled_overhead_ratio": round(wall_enabled / wall_disabled, 3)
        if wall_disabled
        else 0.0,
        "hook_cost_ns": round(hook_s * 1e9, 1),
        "mean_dispatch_us": round(mean_dispatch_s * 1e6, 2),
        "disabled_hook_fraction": round(hook_s / mean_dispatch_s, 5),
    }


def _check_tracing_overhead(tr, top_n: int) -> Iterable[str]:
    if tr["dijkstra_runs_enabled"] != tr["dijkstra_runs_disabled"]:
        yield (
            "enabling tracing changed the Dijkstra run count "
            f"({tr['dijkstra_runs_disabled']} -> {tr['dijkstra_runs_enabled']})"
        )
    if not tr["identical_trees"]:
        yield "traced and untraced runs produced different installed topologies"
    if tr["disabled_hook_fraction"] > 0.05:
        yield (
            f"disabled tracing hook costs {tr['disabled_hook_fraction']:.1%} "
            "of the mean dispatch time (> 5%)"
        )


def bench_ispf_churn(sizes, graphs) -> Dict[str, object]:
    """ISPF on vs off over membership churn: byte-identical outputs.

    Pure membership churn never invalidates LSDB images (no link events),
    so this benchmark is an equivalence gate only -- the engagement and
    relaxation gates live on ``ispf_failure_churn``.
    """
    pairs = _paired_trials(sizes, graphs, _churn_run, 2026, spfcache.ispf_disabled)
    return {"trials": len(pairs), **_identical_outputs(pairs)}


def _check_ispf_identical(record, top_n: int) -> Iterable[str]:
    differ = "ISPF-repaired and full-recompute runs produced different"
    if not record["identical_trees"]:
        yield f"{differ} installed topologies"
    if not record["identical_tables"]:
        yield f"{differ} routing tables"


def bench_ispf_failure_churn(sizes, graphs) -> Dict[str, object]:
    """Churn + link failures, ISPF on vs off: identical outputs, fewer
    relaxations.

    Each injected failure/repair floods exactly one changed LSA, so every
    LSDB sees a single-link image delta -- the case ISPF must repair
    instead of recomputing.  Gated invariants
    (:func:`_check_ispf_failure_churn`): byte-identical installed
    topologies *and* routing tables, ``ispf_repairs > 0``, and (at
    n >= 100) a >= 2x reduction in edge relaxations over the
    post-convergence phase.
    """
    pairs = _paired_trials(
        sizes, graphs, _failure_churn_run, 2026, spfcache.ispf_disabled
    )
    relax_ispf = sum(on["relaxations"] for on, _ in pairs)
    relax_full = sum(off["relaxations"] for _, off in pairs)
    reduction = relax_full / relax_ispf if relax_ispf else float("inf")
    return {
        "trials": len(pairs),
        "link_events": sum(on["link_events"] for on, _ in pairs),
        "relaxations_ispf": relax_ispf,
        "relaxations_full": relax_full,
        "relaxation_reduction": round(reduction, 3),
        "ispf_repairs": sum(on["ispf_repairs"] for on, _ in pairs),
        "ispf_full_fallbacks": sum(on["ispf_full_fallbacks"] for on, _ in pairs),
        **_identical_outputs(pairs),
    }


def _check_ispf_failure_churn(fc, top_n: int) -> Iterable[str]:
    yield from _check_ispf_identical(fc, top_n)
    if fc["ispf_repairs"] <= 0:
        yield (
            "ispf_repairs == 0 -- the incremental fast path stopped "
            "engaging on the link-event workload"
        )
    # The >= 2x relaxation win is an n=100 acceptance criterion; a
    # quick --only run at small n must not flake on it.
    if top_n >= 100 and fc["relaxation_reduction"] < 2.0:
        yield f"relaxation reduction {fc['relaxation_reduction']:.2f}x < 2.0x"


async def _slo_scenario(n: int, seed: int) -> Dict[str, object]:
    """One live convergence-SLO trial: joins, tree-edge fail/repair, leave.

    Returns the SLO tracker's readings.  Wall latencies are real loopback
    UDP round trips (barrier pacing, zero injected loss), so the p50/p99
    are noisy across machines -- the baseline gate holds them to the
    generous :data:`LATENCY_TOLERANCE`.
    """
    from repro.net.fabric import LiveConfig, LiveFabric

    rng = random.Random(seed)
    net = waxman_network(n, rng)
    fabric = LiveFabric(net, ProtocolConfig(), LiveConfig())
    fabric.register_symmetric(1)
    members = sorted(rng.sample(range(n), min(5, n)))
    try:
        await fabric.start()
        for member in members:
            fabric.hosts[member].fire_membership(JoinEvent(member, 1))
            await fabric.quiesce()
        # Fail (then repair) an edge of the *installed* shared tree, so
        # the link-down provably blackholes the connection and the SLO
        # tracker opens a failure-to-repair chain.
        state = fabric.states_for(1).get(members[0])
        edges = (
            sorted(state.installed.all_edges())
            if state is not None and state.installed is not None
            else []
        )
        if edges:
            u, v = edges[0]
            fabric.inject(LinkEvent(u, u, v, up=False), at=0.0)
            fabric.inject(LinkEvent(u, u, v, up=True), at=1.0)
            await fabric.run()
        fabric.hosts[members[-1]].fire_membership(
            LeaveEvent(members[-1], 1)
        )
        await fabric.quiesce()
        slo = fabric.slo
        samples = fabric.metrics.snapshot()
        control_frames = {
            name[len("slo_control_frames_"):-len("_total")]: value
            for name, value in samples.items()
            if name.startswith("slo_control_frames_") and value > 0
        }

        def ms(histogram, q: float) -> float:
            return round(histogram.quantile(q) * 1e3, 3)

        return {
            "switches": n,
            "members": len(members),
            "tree_edge_failed": bool(edges),
            "install_count": slo.install_latency.count,
            "install_p50_ms": ms(slo.install_latency, 0.5),
            "install_p99_ms": ms(slo.install_latency, 0.99),
            "repair_count": slo.repair_latency.count,
            "repair_p50_ms": ms(slo.repair_latency, 0.5),
            "repair_p99_ms": ms(slo.repair_latency, 0.99),
            "resync_count": slo.resync_duration.count,
            "never_converged": slo.never_converged.value,
            "zero_member_events": slo.zero_member_events.value,
            "control_frames": control_frames,
        }
    finally:
        await fabric.shutdown()


def bench_convergence_slo(sizes, graphs) -> Dict[str, object]:
    """Live-runtime convergence SLOs measured through the causal tracker."""
    import asyncio

    n = max(sizes)
    return asyncio.run(_slo_scenario(n, seed=1996))


def _check_convergence_slo(slo, top_n: int) -> Iterable[str]:
    if slo["install_count"] <= 0:
        yield (
            "install-latency histogram is empty -- "
            "no membership-change chain ever converged"
        )
    if not slo["tree_edge_failed"]:
        yield (
            "no installed-tree edge was found to fail -- "
            "the repair scenario never ran"
        )
    elif slo["repair_count"] <= 0:
        yield (
            "failure-repair-window histogram is empty -- "
            "the link-down chain never converged"
        )
    if slo["install_p99_ms"] < slo["install_p50_ms"]:
        yield "install p99 < p50 -- histogram quantile math is broken"


def _sim_quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of already-sorted sim-time latencies."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def bench_dataplane_throughput(sizes, graphs) -> Dict[str, object]:
    """Batched vs reference forwarding under Zipf churn at the top size.

    Gated invariants (:func:`_check_dataplane_throughput`): the 360-packet
    shadow sample through the per-packet reference engine must match the
    batched records field for field, and at n >= 100 (1k groups) the
    batched engine must sustain >= 10x the reference packet rate.  The
    delivery-latency percentiles are *simulated* time -- deterministic
    for the seed, so the baseline gate holds them to counter tolerance.
    """
    from repro.workloads.zipf import replay_workload, zipf_churn_workload

    n = max(sizes)
    full_scale = n >= 100
    groups = 1000 if full_scale else 50
    rng = random.Random(1996)
    net = waxman_network(n, rng)
    dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
    workload = zipf_churn_workload(
        n,
        groups,
        rng,
        phases=3,
        events_per_phase=40,
        batches_per_phase=6,
        batch_size=2048 if full_scale else 256,
        max_initial_members=16,
    )
    result = replay_workload(
        dgmc, workload, hop_delay=0.05, reference_sample=360
    )
    report = result.batched_report
    latencies = sorted(result.latencies())
    return {
        "switches": n,
        "groups": groups,
        "packets": result.packets,
        "churn_events": result.events,
        "batched_pps": round(result.batched_pps, 1),
        "reference_pps": round(result.reference_pps, 1),
        "reference_packets": result.reference_packets,
        "speedup": round(result.speedup, 2),
        "identical_deliveries": result.identical_deliveries,
        "mismatches": len(result.mismatches),
        "mean_delivery_ratio": round(report.mean_delivery_ratio, 6),
        "total_hops": report.total_hops,
        "duplicates": report.total_duplicates,
        "ttl_drops": report.total_ttl_drops,
        "delivery_p50_sim": round(_sim_quantile(latencies, 0.50), 6),
        "delivery_p99_sim": round(_sim_quantile(latencies, 0.99), 6),
    }


def _check_dataplane_throughput(dp, top_n: int) -> Iterable[str]:
    if dp["reference_packets"] > 0 and not dp["identical_deliveries"]:
        yield (
            "batched deliveries diverged from the reference engine on "
            f"{dp['mismatches']} shadow packets"
        )
    # The >= 10x speedup is the n=100 acceptance criterion; small-n
    # runs (--only under quick/smoke) can't amortize compilation.
    if top_n >= 100 and dp["speedup"] < 10.0:
        yield (
            f"batched engine speedup {dp['speedup']:.1f}x < 10.0x "
            "over the reference engine"
        )


def bench_dataplane_contrast(sizes, graphs) -> Dict[str, object]:
    """D-GMC batched forwarding vs the MOSPF baseline, heavy traffic.

    Runs the same Zipf workload through both data planes at the small
    size (MOSPF pays a shortest-path computation per data-driven
    (source, group) sighting, so large sizes are prohibitive -- which is
    the paper's point).  Gated: MOSPF's computations per datagram stay
    positive while D-GMC's data plane performs zero, and the batched
    packet rate exceeds MOSPF's.
    """
    from repro.workloads.zipf import (
        mospf_contrast,
        replay_workload,
        zipf_churn_workload,
    )

    n = min(sizes)
    rng = random.Random(1996)
    net = waxman_network(n, rng)
    workload = zipf_churn_workload(
        n,
        100,
        rng,
        phases=2,
        events_per_phase=16,
        batches_per_phase=2,
        batch_size=256,
        max_initial_members=12,
    )
    dgmc = DgmcNetwork(
        net.copy(), ProtocolConfig(compute_time=0.5, per_hop_delay=0.05)
    )
    result = replay_workload(dgmc, workload, hop_delay=0.05)
    contrast = mospf_contrast(
        net.copy(), workload, compute_time=0.5, per_hop_delay=0.05
    )
    return {
        "switches": n,
        "groups": 100,
        "packets": result.packets,
        "batched_pps": round(result.batched_pps, 1),
        "mospf_pps": round(contrast["pps"], 1),
        "pps_ratio": round(
            result.batched_pps / contrast["pps"] if contrast["pps"] else 0.0, 2
        ),
        "mospf_datagrams": int(contrast["datagrams"]),
        "mospf_tree_computations": int(contrast["tree_computations"]),
        "mospf_computations_per_datagram": round(
            contrast["computations_per_datagram"], 3
        ),
        # The paper's Section 2 claim, made measurable: D-GMC precomputes
        # at install time, so traffic triggers no tree computation.
        "dgmc_data_path_computations": 0,
    }


def _check_dataplane_contrast(dc, top_n: int) -> Iterable[str]:
    if dc["mospf_computations_per_datagram"] <= 0:
        yield (
            "MOSPF performed no data-driven tree computations -- the "
            "contrast workload stopped exercising its per-(source, group) path"
        )
    if dc["batched_pps"] <= dc["mospf_pps"]:
        yield (
            f"batched D-GMC forwarding ({dc['batched_pps']:.0f} pkt/s) is not "
            f"faster than the MOSPF baseline ({dc['mospf_pps']:.0f} pkt/s)"
        )


def _joined_group(n: int, seed: int, size: int, config: ProtocolConfig) -> tuple:
    """A seeded Waxman network whose connection 1 has ``size`` members
    joined one second apart and converged; returns ``(network, members)``."""
    rng = random.Random(seed)
    dgmc = DgmcNetwork(waxman_network(n, rng), config)
    dgmc.register_symmetric(1)
    members = sorted(rng.sample(range(n), size))
    for t, member in enumerate(members, start=1):
        dgmc.inject(JoinEvent(member, 1), at=float(t))
    dgmc.run()
    return dgmc, members


def _frr_soak_arm(n: int, seed: int, enable_frr: bool, cycles: int) -> Dict[str, object]:
    """One arm of the blackhole soak: fail covered tree edges, stream traffic.

    Converges a 6-member group, then per cycle fails one backup-covered
    installed-tree edge (rotating deterministically), streams on-tree
    packets across the failure, and heals.  A packet counts as *in the
    blackhole window* when every switch still held the pre-failure
    topology both at send time and one flight-guard later -- i.e. its
    whole flight ran between local failure detection and the first
    reinstall, the exact window fast reroute must cover.  Packets that
    straddle the staggered reinstall see transiently mixed tree views;
    that reconvergence cost predates FRR (see docs/dataplane.md) and is
    reported separately as ``lost_total``.
    """
    from repro.dataplane.forwarding import ForwardingEngine
    from repro.dataplane.packet import McPacket

    # A long Tc keeps the detection->reinstall window wide open (the
    # paper's compute-dominated regime) so the soak samples it densely.
    config = ProtocolConfig(compute_time=2.0, per_hop_delay=0.05, enable_frr=enable_frr)
    dgmc, members = _joined_group(n, seed, 6, config)

    engine = ForwardingEngine(dgmc, hop_delay=0.01)
    dt, window, guard = 0.05, 5.0, 0.25
    sent = lost = window_sent = window_lost = covered_cycles = 0
    for cycle in range(cycles):
        states = dgmc.states_for(1)
        state = states[members[0]]
        if state.installed is None:
            raise AssertionError("FRR soak: no installed tree at a stable point")
        # Bridges have no loop-free detour (BackupPlan.uncovered); the
        # zero-loss claim is scoped to edges a fragment can protect.  Only
        # an endpoint plans for an edge, so ask the plan ``u`` would hold
        # (at a stable point every switch has the same image).
        image = dgmc.routers[members[0]].network_image()
        covered = [
            (u, v)
            for u, v in sorted(state.installed.all_edges())
            if compute_backup_plan(state.installed, image, u).covers(u, v)
        ]
        if not covered:
            continue
        u, v = covered[cycle % len(covered)]
        covered_cycles += 1
        old = {x: st.installed for x, st in states.items()}

        def uniform_old() -> bool:
            return all(
                st.installed is old[x] for x, st in dgmc.states_for(1).items()
            )

        t0 = dgmc.sim.now + 1.0
        dgmc.inject(LinkEvent(u, u, v, up=False), at=t0)
        records: List[object] = []
        at_send: List[bool] = []
        at_guard: List[bool] = []
        for k in range(int(window / dt)):
            at = t0 + k * dt
            records.append(engine.send(McPacket(members[0], 1), at=at))
            at_send.append(False)
            at_guard.append(False)

            def probe_send(i=len(at_send) - 1):
                at_send[i] = uniform_old()

            def probe_guard(i=len(at_guard) - 1):
                at_guard[i] = uniform_old()

            dgmc.sim.schedule_at(at, probe_send)
            dgmc.sim.schedule_at(at + guard, probe_guard)
        dgmc.run()
        sent += len(records)
        lost += sum(1 for r in records if not r.complete)
        in_window = [a and b for a, b in zip(at_send, at_guard)]
        window_sent += sum(in_window)
        window_lost += sum(
            1 for r, f in zip(records, in_window) if f and not r.complete
        )
        dgmc.inject(LinkEvent(u, u, v, up=True), at=dgmc.sim.now + 1.0)
        dgmc.run()

    agreed, detail = dgmc.agreement(1)
    if not agreed:
        raise AssertionError(f"disagreement in FRR soak (frr={enable_frr}): {detail}")
    return {
        "sent": sent,
        "lost_total": lost,
        "window_sent": window_sent,
        "window_lost": window_lost,
        "covered_cycles": covered_cycles,
        "blob": canonical_tree_bytes(dgmc.states_for(1)),
    }


def bench_frr_blackhole_soak(sizes, graphs) -> Dict[str, object]:
    """Paired failure/heal soak: blackhole-window loss with and without FRR.

    Gated invariants (:func:`_check_frr_blackhole_soak`): the FRR arm loses
    **zero** in-window packets, the FRR-off arm on the identical seeded
    schedule loses a nonzero number (the measured blackhole), and after
    every repair cycle converges both arms hold byte-identical installed
    topologies -- backup activation leaves no trace in control state.
    """
    n = max(sizes)
    cycles = 3
    off = _frr_soak_arm(n, seed=1996, enable_frr=False, cycles=cycles)
    on = _frr_soak_arm(n, seed=1996, enable_frr=True, cycles=cycles)
    return {
        "switches": n,
        "cycles": cycles,
        "covered_cycles": off["covered_cycles"],
        "packets_per_arm": off["sent"],
        "window_packets": off["window_sent"],
        "lost_in_window_no_frr": off["window_lost"],
        "lost_total_no_frr": off["lost_total"],
        "frr_arm": True,  # both arms always run; the key keeps the schema
        "lost_in_window_frr": on["window_lost"],
        "lost_total_frr": on["lost_total"],
        "reconciled_identical": on["blob"] == off["blob"],
    }


def _check_frr_blackhole_soak(fb, top_n: int) -> Iterable[str]:
    if fb["covered_cycles"] <= 0:
        yield (
            "no backup-covered tree edge was ever failed -- "
            "the soak never exercised fast reroute"
        )
    if fb["window_packets"] <= 0:
        yield (
            "the blackhole window contained no packets -- the "
            "detection->reinstall window closed before traffic sampled it"
        )
    if fb["lost_in_window_no_frr"] <= 0:
        yield (
            "the FRR-off arm lost no in-window packets -- the blackhole "
            "the protection must close was never measured"
        )
    if fb["lost_in_window_frr"] != 0:
        yield (
            f"{fb['lost_in_window_frr']} on-tree packets lost in the "
            "detection->reinstall window despite an active backup fragment "
            "(must be zero)"
        )
    if not fb["reconciled_identical"]:
        yield (
            "after repair convergence the FRR and never-FRR runs hold "
            "different installed topologies -- backup state leaked into "
            "control state"
        )


def bench_frr_backup_compute(sizes, graphs) -> Dict[str, object]:
    """Backup-fragment precomputation cost of one install, deployment-wide.

    One install's worth of planning is every switch of the deployment
    running ``compute_backup_plan`` for itself on the installed tree:
    the on-tree switches each derive the fragments of their incident
    edges (so every tree edge is planned twice, once per endpoint) and
    the others return at once.  Timed on warm images (SPF results
    memoized, as after a membership event); the benchmark's wall time
    (reps * install) is gated against the committed baseline, bounding
    regressions in the detour search.  Coverage counters are
    deterministic for the seed.
    """
    n = max(sizes)
    dgmc, members = _joined_group(
        n, 1996, 8, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05)
    )
    state = dgmc.states_for(1)[members[0]]
    if state.installed is None:
        raise AssertionError("frr_backup_compute: no installed tree")
    images = {x: router.network_image() for x, router in dgmc.routers.items()}
    reps = 200
    start = time.perf_counter()
    for _ in range(reps):
        plans = [
            compute_backup_plan(state.installed, image, x)
            for x, image in images.items()
        ]
    per_install_s = (time.perf_counter() - start) / reps
    tree = state.installed.all_edges()
    return {
        "switches": n,
        "members": len(members),
        "tree_edges": len(tree),
        "on_tree_switches": len({x for edge in tree for x in edge}),
        "planning_switches": sum(
            1 for plan in plans if plan.fragments or plan.uncovered
        ),
        "fragments": sum(len(plan.fragments) for plan in plans),
        "uncovered": sum(len(plan.uncovered) for plan in plans),
        "reps": reps,
        "per_install_ms": round(per_install_s * 1e3, 4),
    }


def _check_frr_backup_compute(bc, top_n: int) -> Iterable[str]:
    if bc["fragments"] <= 0:
        yield "no backup fragments were computed for the installed tree"
    if bc["fragments"] + bc["uncovered"] != 2 * bc["tree_edges"]:
        yield (
            f"fragments + uncovered ({bc['fragments']} + {bc['uncovered']}) "
            f"!= 2 * tree edges ({bc['tree_edges']}) -- an edge is not "
            "planned at exactly its two endpoints"
        )
    if bc["planning_switches"] != bc["on_tree_switches"]:
        yield (
            f"{bc['planning_switches']} switches hold a plan but "
            f"{bc['on_tree_switches']} are on the tree -- only an endpoint "
            "of a tree edge has anything to plan"
        )


# -- the registry ------------------------------------------------------------


def _no_invariants(record, top_n: int) -> Iterable[str]:
    return ()


class Benchmark(NamedTuple):
    """One benchmark and everything that gates it.

    ``run(sizes, graphs_per_size)`` returns the record; it runs under each
    mode in ``modes`` (and under any mode via ``--only``).  ``check(record,
    top_n)`` yields the record's invariant violations, baseline-independent
    (``top_n`` is the run's largest size, for criteria that only hold at
    acceptance scale).  ``counters`` are held to the baseline within
    :data:`COUNT_TOLERANCE`, ``latencies`` (milliseconds) within
    :data:`LATENCY_TOLERANCE`; wall time is gated for every benchmark.
    """

    run: Callable[[Tuple[int, ...], int], Dict[str, object]]
    modes: Tuple[str, ...]
    check: Callable[[Dict[str, object], int], Iterable[str]] = _no_invariants
    counters: Tuple[str, ...] = ()
    latencies: Tuple[str, ...] = ()


#: The small sweep: ``quick`` for the unit tests, ``smoke`` for CI.
SWEEP = ("quick", "smoke")

BENCHMARKS: Dict[str, Benchmark] = {
    "exp1_churn": Benchmark(
        bench_exp1_churn, SWEEP, _check_agreed,
        counters=("computations", "dijkstra_runs", "events", "floodings"),
    ),
    "exp2_churn": Benchmark(
        bench_exp2_churn, SWEEP, _check_agreed,
        counters=("computations", "dijkstra_runs", "events", "floodings"),
    ),
    "spf_substrate": Benchmark(bench_spf_substrate, SWEEP, counters=("dijkstra_runs",)),
    "cache_equivalence": Benchmark(bench_cache_equivalence, SWEEP, _check_cache_equivalence),
    "tracing_overhead": Benchmark(bench_tracing_overhead, SWEEP, _check_tracing_overhead),
    "ispf_churn": Benchmark(bench_ispf_churn, ("ispf",), _check_ispf_identical),
    "ispf_failure_churn": Benchmark(
        bench_ispf_failure_churn, ("ispf",), _check_ispf_failure_churn,
        counters=("relaxations_ispf",),
    ),
    "convergence_slo": Benchmark(
        bench_convergence_slo, ("convergence_slo",), _check_convergence_slo,
        latencies=("install_p50_ms", "install_p99_ms", "repair_p50_ms", "repair_p99_ms"),
    ),
    # The simulated delivery percentiles are seeded outputs, deterministic
    # across machines, so they are counters, not latencies.
    "dataplane_throughput": Benchmark(
        bench_dataplane_throughput, ("dataplane",), _check_dataplane_throughput,
        counters=("delivery_p50_sim", "delivery_p99_sim", "duplicates",
                  "total_hops", "ttl_drops"),
    ),
    "dataplane_contrast": Benchmark(
        bench_dataplane_contrast, ("dataplane",), _check_dataplane_contrast,
        counters=("mospf_tree_computations",),
    ),
    "frr_blackhole_soak": Benchmark(bench_frr_blackhole_soak, ("frr",), _check_frr_blackhole_soak),
    "frr_backup_compute": Benchmark(
        bench_frr_backup_compute, ("frr",), _check_frr_backup_compute,
        counters=("fragments",),
    ),
}


# -- run / report ------------------------------------------------------------


def run_benchmarks(mode: str, only: Optional[List[str]] = None) -> Dict[str, object]:
    sizes, graphs = MODES[mode]
    records: Dict[str, Dict[str, object]] = {}
    snap0 = GLOBAL_REGISTRY.snapshot()
    for name, bench in BENCHMARKS.items():
        selected = name in only if only else mode in bench.modes
        if not selected:
            continue
        start = time.perf_counter()
        record = bench.run(sizes, graphs)
        record["wall_time_s"] = round(time.perf_counter() - start, 4)
        records[name] = record
        print(f"  {name}: {record['wall_time_s']:.2f}s", flush=True)
    return {
        "schema": SCHEMA,
        "mode": mode,
        "sizes": list(sizes),
        "graphs_per_size": graphs,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benchmarks": records,
        #: Process-wide registry sample deltas over the whole run.
        "metrics": GLOBAL_REGISTRY.delta(snap0),
    }


def export_observability_artifacts(mode: str, results_dir: pathlib.Path) -> List[pathlib.Path]:
    """Chrome trace + Prometheus dump of a small conflict scenario.

    CI uploads both as workflow artifacts alongside ``BENCH_<mode>.json``,
    so every run leaves an inspectable trace of the protocol in action.
    """
    rng = random.Random(1996)
    net = waxman_network(12, rng)
    dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
    dgmc.register_symmetric(1)
    for sw in rng.sample(range(net.n), 4):
        dgmc.inject(JoinEvent(sw, 1), at=1.0 + rng.random())
    tracer = Tracer(enabled=True)
    tracer.add_sink(RingBufferSink())
    with use_tracer(tracer):
        dgmc.run()
    trace_path = results_dir / f"TRACE_{mode}.json"
    tracer.export_chrome(str(trace_path))
    prom_path = results_dir / f"METRICS_{mode}.prom"
    prom_path.write_text(dgmc.metrics.to_prometheus())
    return [trace_path, prom_path]


def check_invariants(report: Dict[str, object]) -> List[str]:
    """Baseline-independent correctness gates: every record's entry check."""
    top_n = max(report["sizes"])
    return [
        f"{name}: {failure}"
        for name, record in report["benchmarks"].items()
        for failure in BENCHMARKS[name].check(record, top_n)
    ]


def compare_to_baseline(
    report: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Regression list (empty = pass).  Only benchmarks present in both
    runs are compared; a missing baseline mode is itself a failure.  A key
    an entry declares must be in both records (a ``KeyError`` otherwise):
    a renamed key never ungates silently."""
    base_benches = baseline.get("modes", {}).get(report["mode"])
    if base_benches is None:
        return [
            f"baseline has no entry for mode {report['mode']!r}; "
            "refresh it with --update-baseline"
        ]
    failures: List[str] = []
    for name, record in report["benchmarks"].items():
        base = base_benches["benchmarks"].get(name)
        if base is None:
            continue
        allowed = max(
            base["wall_time_s"] * (1.0 + WALL_TOLERANCE),
            base["wall_time_s"] + WALL_GRACE_S,
        )
        if record["wall_time_s"] > allowed:
            failures.append(
                f"{name}: wall time {record['wall_time_s']:.3f}s exceeds "
                f"baseline {base['wall_time_s']:.3f}s by more than "
                f"{WALL_TOLERANCE:.0%}"
            )
        for key in BENCHMARKS[name].counters:
            if record[key] > base[key] * (1.0 + COUNT_TOLERANCE):
                failures.append(
                    f"{name}: {key} {record[key]} exceeds baseline "
                    f"{base[key]} by more than {COUNT_TOLERANCE:.0%}"
                )
        for key in BENCHMARKS[name].latencies:
            limit = base[key] * (1.0 + LATENCY_TOLERANCE) + LATENCY_GRACE_MS
            if record[key] > limit:
                failures.append(
                    f"{name}: {key} {record[key]:.1f}ms exceeds baseline "
                    f"{base[key]:.1f}ms beyond the latency tolerance "
                    f"(limit {limit:.1f}ms)"
                )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="smoke")
    parser.add_argument(
        "--smoke",
        action="store_const",
        const="smoke",
        dest="mode",
        help="shorthand for --mode smoke (the CI gate)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(BENCHMARKS),
        help="run only the named benchmark (repeatable)",
    )
    parser.add_argument("--out", type=pathlib.Path, default=None)
    parser.add_argument("--baseline", type=pathlib.Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on regression vs the baseline or invariant violation",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="record this run's report as the baseline's entry for the mode "
        "(refused when an invariant fails)",
    )
    args = parser.parse_args(argv)

    print(f"regress: mode={args.mode}", flush=True)
    report = run_benchmarks(args.mode, only=args.only)

    out = args.out or HERE / "results" / f"BENCH_{args.mode}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")

    for artifact in export_observability_artifacts(args.mode, out.parent):
        print(f"wrote {artifact}")

    failures = check_invariants(report)
    invariants_hold = not failures
    if args.check:
        if args.baseline.exists():
            baseline = json.loads(args.baseline.read_text())
            failures += compare_to_baseline(report, baseline)
        else:
            failures.append(f"baseline {args.baseline} not found")
    if args.update_baseline and not invariants_hold:
        print("baseline NOT updated: the run failed its invariants")
    elif args.update_baseline:
        modes = {}
        if args.baseline.exists():
            modes = json.loads(args.baseline.read_text())["modes"]
        modes[args.mode] = report
        args.baseline.write_text(
            json.dumps({"schema": SCHEMA, "modes": modes}, indent=2,
                       sort_keys=True) + "\n"
        )
        print(f"baseline updated: {args.baseline} (mode {args.mode!r})")

    if failures:
        print("REGRESSION CHECK FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("regression check passed" if args.check else "done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
