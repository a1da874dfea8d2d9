"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures``   -- regenerate the paper's Figures 6-8 (add ``--quick``),
* ``compare``   -- the Section 4 D-GMC / MOSPF / brute-force comparison,
* ``trace``     -- run a small conflict scenario and print the merged
  protocol timeline plus the convergence profile; ``--export-trace``
  writes a Chrome trace (chrome://tracing / Perfetto), ``--export-jsonl``
  streams events as JSONL, ``--metrics`` dumps the Prometheus text of the
  deployment's metrics registry,
* ``profile``   -- per-phase (SPF / flooding / arbitration / kernel
  overhead) wall-time breakdown of a representative run,
* ``live``      -- run a scenario on the live asyncio/UDP backend and
  (optionally) check byte-level equivalence against the discrete-event
  run; ``--loss`` injects seeded datagram loss, ``--metrics`` dumps the
  transport's counters as Prometheus text,
* ``chaos``     -- seeded crash/restart/partition/churn soak on the live
  backend with hello-based failure detection and neighbor resync;
  asserts agreement and tree validity at every stable point,
* ``stress``    -- STRESS-style systematic exploration of arbitration
  schedules: enumerate every LSA delivery/loss/event interleaving of a
  small scenario, check the named invariants in every state, and shrink
  any violation to a 1-minimal replayable counterexample
  (``--replay`` re-runs a committed one; see docs/systematic-testing.md),
* ``dataplane`` -- drive a Zipf churn-and-traffic workload through the
  batched forwarding engine, optionally shadowing a packet sample
  through the per-packet reference engine (exit code checks delivery
  equivalence) and contrasting against the MOSPF baseline
  (``--mospf``); ``--metrics`` dumps the ``dataplane_*`` counters
  (see docs/dataplane.md),
* ``obs merge`` -- fuse per-host JSONL traces (``clock_sync``
  epoch-aligned) into one cross-host Chrome trace with causal flow
  arrows intact (see docs/observability.md).
"""

from __future__ import annotations

import argparse
import random
from typing import List, Optional

from repro.core import DgmcNetwork, JoinEvent, ProtocolConfig


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.harness.figures import experiment1, experiment2, experiment3
    from repro.harness.report import render_rows

    if args.quick:
        sizes, graphs = (20, 60), 3
    else:
        sizes, graphs = (20, 40, 60, 80, 100), 10
    print(render_rows(
        experiment1(sizes=sizes, graphs_per_size=graphs, seed=args.seed),
        "Figure 6 -- Experiment 1: bursty, computation dominates",
    ))
    print()
    print(render_rows(
        experiment2(sizes=sizes, graphs_per_size=graphs, seed=args.seed),
        "Figure 7 -- Experiment 2: bursty, communication dominates",
    ))
    print()
    print(render_rows(
        experiment3(sizes=sizes, graphs_per_size=graphs, seed=args.seed),
        "Figure 8 -- Experiment 3: normal traffic",
        include_convergence=False,
    ))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.harness.figures import baseline_comparison
    from repro.harness.report import render_comparison

    sizes = (20, 60) if args.quick else (20, 40, 60, 80, 100)
    graphs = 2 if args.quick else 5
    rows = baseline_comparison(
        sizes=sizes, graphs_per_size=graphs, seed=args.seed, bursty=args.bursty
    )
    flavor = "bursty" if args.bursty else "sparse"
    print(render_comparison(rows, f"computations/event ({flavor} events)"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.tracer import JsonlSink, RingBufferSink, get_tracer
    from repro.obs.timeline import (
        build_timeline,
        convergence_profile,
        render_timeline,
    )
    from repro.topo.generators import waxman_network

    tracer = get_tracer()
    jsonl_sink = None
    tracing = bool(args.export_trace or args.export_jsonl)
    if tracing:
        sinks = [RingBufferSink()]
        if args.export_jsonl:
            jsonl_sink = JsonlSink(args.export_jsonl)
            sinks.append(jsonl_sink)
        tracer.reset()
        tracer.configure(enabled=True, sinks=sinks)

    rng = random.Random(args.seed)
    net = waxman_network(args.switches, rng)
    dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
    dgmc.fabric.record_history = True
    dgmc.register_symmetric(1)
    for sw in rng.sample(range(net.n), args.members):
        dgmc.inject(JoinEvent(sw, 1), at=1.0 + rng.random())  # conflicting burst
    try:
        dgmc.run()
    finally:
        if tracing:
            tracer.enabled = False
    ok, detail = dgmc.agreement(1)
    print(f"burst of {args.members} joins on {net.n} switches; agreement: {ok}\n")
    print(render_timeline(build_timeline(dgmc, connection_id=1), limit=args.limit))
    print("\nconvergence profile (switches settled over time):")
    for t, count in convergence_profile(dgmc, 1):
        print(f"  t={t:9.4f}  {count:3d}/{net.n}")
    if args.export_trace:
        written = tracer.export_chrome(args.export_trace)
        print(f"\nwrote {written} trace events to {args.export_trace}")
    if jsonl_sink is not None:
        jsonl_sink.close()
        print(f"wrote JSONL trace to {args.export_jsonl}")
    if tracing:
        tracer.configure(enabled=False, sinks=[])
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(dgmc.metrics.to_prometheus())
        print(f"wrote metrics dump to {args.metrics}")
    return 0 if ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import run_profile

    try:
        breakdown = run_profile(
            quick=args.quick, seed=args.seed,
            switches=args.switches, members=args.members,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(breakdown.render())
    if breakdown.coverage < 0.9:
        print(
            f"warning: phases cover only {breakdown.coverage:.1%} "
            "of the measured wall time (expected >= 90%)"
        )
        return 1
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    import contextlib
    import os

    from repro.net.equiv import (
        check_equivalence,
        make_scenario,
        run_discrete,
        run_live,
    )
    from repro.obs.merge import export_host_traces, merge_traces
    from repro.obs.tracer import RingBufferSink, Tracer, use_tracer

    scenario = make_scenario(
        switches=args.switches, seed=args.seed, events=args.events
    )
    tracer = None
    if args.trace_dir:
        tracer = Tracer(enabled=True, process_name=f"live-s{args.seed}")
        tracer.add_sink(RingBufferSink(200_000))
    scope = (
        use_tracer(tracer) if tracer is not None else contextlib.nullcontext()
    )
    with scope:
        result = run_live(scenario, loss=args.loss, fault_seed=args.fault_seed)
    if tracer is not None:
        paths = export_host_traces(
            tracer, args.trace_dir, prefix=f"live_s{args.seed}"
        )
        for path in paths:
            print(f"wrote host trace to {path}")
        if paths:
            merged = os.path.join(
                args.trace_dir, f"live_s{args.seed}_merged_trace.json"
            )
            merge_traces(paths, out_path=merged)
            print(f"wrote merged cross-host trace to {merged}")
    print(
        f"live run: {scenario.net.n} switches over loopback UDP, "
        f"{len(scenario.timeline)} events, loss={args.loss:g}"
    )
    print(f"agreement: {result.agreed} ({result.detail})")
    print("transport counters:")
    for name, value in sorted(result.counters.items()):
        print(f"  {name} {value:g}")
    ok = result.agreed
    if args.check_equivalence:
        reference = run_discrete(scenario)
        report = check_equivalence(
            reference, result, require_identical_trees=args.loss == 0.0
        )
        print(f"equivalence vs discrete-event backend: {report.ok}")
        print(report.detail)
        ok = ok and report.ok
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(result.prom)
        print(f"wrote metrics dump to {args.metrics}")
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.net.chaos import ChaosSettings, run_chaos_soak_sync

    settings = ChaosSettings(
        switches=args.switches,
        seed=args.seed,
        actions=args.actions,
        loss=args.loss,
        duplicate_rate=args.duplicate_rate,
        reorder=args.reorder,
        trace_dir=args.trace_dir,
        flight_dir=args.flight_dir,
        ablate_member_stamp=args.disable_m_vector,
        frr=args.frr,
    )
    report = run_chaos_soak_sync(settings)
    for line in report.summary_lines():
        print(line)
    print("schedule: " + "; ".join(report.schedule))
    print("resync/hello counters:")
    for name, value in sorted(report.counters.items()):
        if name.startswith(("resync_", "hello_")):
            print(f"  {name} {value:g}")
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(report.prom)
        print(f"wrote metrics dump to {args.metrics}")
    for path in report.trace_files:
        print(f"wrote host trace to {path}")
    if report.merged_trace:
        print(f"wrote merged cross-host trace to {report.merged_trace}")
    for path in report.flight_files:
        print(f"wrote flight-recorder artifact to {path}")
    if args.expect_violation:
        if report.violations:
            print("expected violation observed "
                  f"({', '.join(sorted(set(report.violation_names)))})")
            return 0
        print("FAILED: expected a violation, none observed")
        return 1
    if not report.ok:
        for name in sorted(set(report.violation_names)) or ["agreement"]:
            print(f"FAILED invariant: {name}")
    return 0 if report.ok else 1


def _cmd_stress(args: argparse.Namespace) -> int:
    import os

    from repro.obs.attach import attach_stress_metrics
    from repro.stress import (
        Counterexample,
        StressOptions,
        describe_step,
        explore,
        replay_violates,
    )
    from repro.workloads.stress import GATE_SCENARIOS, SCENARIOS, get_scenario

    if args.list:
        for name, scenario in sorted(SCENARIOS.items()):
            print(f"{name} ({scenario.switches} switches): "
                  f"{scenario.description}")
        return 0

    overrides = {}
    if args.disable_m_vector:
        overrides["ablate_member_stamp"] = True
    if args.disable_degraded_repair:
        overrides["ablate_degraded_repair"] = True
    if args.frr:
        overrides["enable_frr"] = True

    if args.replay:
        ce = Counterexample.load(args.replay)
        scenario = get_scenario(ce.scenario)
        config = dict(ce.config)
        config.update(overrides)
        print(f"replaying {args.replay}: scenario {ce.scenario}, "
              f"{len(ce.schedule)} steps, config {config or '{}'}")
        for step in ce.schedule:
            print(f"  {describe_step(step, scenario)}")
        violated = replay_violates(
            scenario, ce.schedule, config_overrides=config,
            invariant=ce.invariant,
        )
        if violated:
            print(f"FAILED invariant: {ce.invariant}")
            return 1
        print(f"invariant {ce.invariant!r} holds under this schedule")
        return 0

    names = args.scenario or list(GATE_SCENARIOS)
    options = StressOptions(
        strategy=args.strategy,
        max_transitions=args.budget,
        max_depth=args.max_depth,
        loss_branching=args.loss_branching,
        max_drops=args.max_drops,
        max_counterexamples=args.max_counterexamples,
        minimize=not args.no_minimize,
        config_overrides=overrides,
    )
    registry = None
    failed_invariants = []
    not_exhaustive = []
    for name in names:
        scenario = get_scenario(name)
        report = explore(scenario, options)
        for line in report.summary_lines():
            print(line)
        registry = attach_stress_metrics(report, registry)
        if not report.exhaustive:
            not_exhaustive.append(name)
        for ce in report.counterexamples:
            failed_invariants.append(ce.invariant)
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                slug = ce.invariant.replace("-", "_")
                path = os.path.join(args.out, f"{name}__{slug}.json")
                ce.save(path)
                print(f"wrote counterexample to {path}")
        print()
    if args.metrics and registry is not None:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(registry.to_prometheus())
        print(f"wrote metrics dump to {args.metrics}")

    if args.expect_counterexample:
        if failed_invariants:
            print(f"expected counterexample found "
                  f"({', '.join(sorted(set(failed_invariants)))})")
            return 0
        print("FAILED: expected a counterexample, none found")
        return 1
    rc = 0
    for name in sorted(set(failed_invariants)):
        print(f"FAILED invariant: {name}")
        rc = 1
    if args.require_exhaustive and not_exhaustive:
        print("FAILED exhaustiveness: budget or depth bound truncated "
              + ", ".join(not_exhaustive))
        rc = 1
    return rc


def _cmd_dataplane(args: argparse.Namespace) -> int:
    from repro.topo.generators import waxman_network
    from repro.workloads.zipf import (
        mospf_contrast,
        replay_workload,
        zipf_churn_workload,
    )

    rng = random.Random(args.seed)
    net = waxman_network(args.switches, rng)
    dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
    workload = zipf_churn_workload(
        args.switches,
        args.groups,
        rng,
        s=args.zipf_s,
        phases=args.phases,
        events_per_phase=args.events,
        batches_per_phase=args.batches,
        batch_size=args.batch_size,
        max_initial_members=args.max_members,
    )
    result = replay_workload(
        dgmc, workload, hop_delay=0.05, reference_sample=args.reference_sample
    )
    print(
        f"zipf(s={args.zipf_s:g}) workload: {args.groups} groups on "
        f"{net.n} switches, {result.events} churn events, "
        f"{result.packets} packets in {result.batches} batches"
    )
    report = result.batched_report
    print(
        f"batched engine: {result.batched_pps:>10.0f} pkt/s  "
        f"(wall {result.batched_wall_s:.3f}s, "
        f"delivery ratio {report.mean_delivery_ratio:.3f}, "
        f"{report.total_hops} hops, {report.total_duplicates} duplicates, "
        f"{report.total_ttl_drops} ttl drops)"
    )
    latencies = sorted(result.latencies())
    if latencies:
        p50 = latencies[len(latencies) // 2]
        p99 = latencies[min(len(latencies) - 1, (len(latencies) * 99) // 100)]
        print(f"delivery latency: p50={p50:.3f} p99={p99:.3f} (sim time)")
    ok = True
    if args.reference_sample:
        print(
            f"reference engine: {result.reference_pps:>8.0f} pkt/s over a "
            f"{result.reference_packets}-packet shadow sample "
            f"(speedup {result.speedup:.1f}x)"
        )
        ok = result.identical_deliveries
        print(f"deliveries identical to reference: {ok}")
        for line in result.mismatches[:5]:
            print(f"  mismatch: {line}")
    if args.mospf:
        contrast = mospf_contrast(
            net.copy(), workload, compute_time=0.5, per_hop_delay=0.05
        )
        print(
            f"MOSPF baseline: {contrast['pps']:>8.0f} pkt/s, "
            f"{contrast['tree_computations']:.0f} data-driven tree "
            f"computations ({contrast['computations_per_datagram']:.2f} "
            "per datagram; D-GMC's data plane performs zero)"
        )
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(dgmc.metrics.to_prometheus())
        print(f"wrote metrics dump to {args.metrics}")
    return 0 if ok else 1


def _cmd_obs_merge(args: argparse.Namespace) -> int:
    from repro.obs.merge import MergeError, merge_traces

    try:
        trace = merge_traces(args.traces, out_path=args.out)
    except (MergeError, OSError) as exc:
        print(f"merge failed: {exc}")
        return 1
    events = trace["traceEvents"]
    pids = {e.get("pid") for e in events if e.get("ph") != "M"}
    flows = sum(1 for e in events if e.get("ph") in ("s", "f"))
    print(
        f"merged {len(args.traces)} trace files: {len(events)} events "
        f"across {len(pids)} host lanes ({flows} causal flow events)"
    )
    print(f"wrote merged Chrome trace to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="D-GMC reproduction (Huang & McKinley, ICDCS 1996)",
    )
    parser.add_argument("--seed", type=int, default=1996)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="regenerate Figures 6-8")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("compare", help="D-GMC vs MOSPF vs brute-force")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--bursty", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("trace", help="timeline of a conflicting join burst")
    p.add_argument("--switches", type=int, default=12)
    p.add_argument("--members", type=int, default=4)
    p.add_argument("--limit", type=int, default=40)
    p.add_argument(
        "--export-trace",
        metavar="PATH",
        help="write a Chrome trace JSON (chrome://tracing, Perfetto)",
    )
    p.add_argument(
        "--export-jsonl",
        metavar="PATH",
        help="stream trace events as one JSON object per line",
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        help="write the metrics registry as Prometheus text",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "profile", help="per-phase wall-time breakdown (SPF/flood/arbitration)"
    )
    p.add_argument("--quick", action="store_true")
    p.add_argument(
        "--switches", type=int, metavar="N",
        help="network size (default 48; 16 with --quick)",
    )
    p.add_argument(
        "--members", type=int, metavar="M",
        help="switches in the conflicting join burst (default 16; 6 with --quick)",
    )
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("live", help="run switches live over loopback UDP")
    p.add_argument("--switches", type=int, default=12)
    p.add_argument("--events", type=int, default=8)
    # SUPPRESS: accept --seed after the subcommand too, without the
    # subparser default clobbering an already-parsed top-level --seed.
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="injected datagram loss probability (0..1)",
    )
    p.add_argument(
        "--fault-seed",
        type=int,
        default=7,
        help="seed of the fault injector's RNG stream",
    )
    p.add_argument(
        "--check-equivalence",
        action="store_true",
        help="also run the discrete-event backend and compare final trees",
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        help="write the transport's metrics registry as Prometheus text",
    )
    p.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="enable causal tracing; write per-host JSONL traces plus a "
        "merged cross-host Chrome trace into this directory",
    )
    p.set_defaults(func=_cmd_live)

    p = sub.add_parser(
        "chaos", help="seeded crash/partition/churn soak on the live backend"
    )
    p.add_argument("--switches", type=int, default=12)
    p.add_argument(
        "--actions",
        type=int,
        default=20,
        help="scheduled fault/churn actions (cleanup actions come on top)",
    )
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument(
        "--loss",
        type=float,
        default=0.10,
        help="injected datagram loss probability (0..1)",
    )
    p.add_argument(
        "--duplicate-rate",
        type=float,
        default=0.02,
        help="injected datagram duplication probability (0..1)",
    )
    p.add_argument(
        "--reorder",
        type=float,
        default=0.0,
        help="probability a frame is held back ~50ms so later frames "
        "overtake it (0..1; the race actions' reordering dial)",
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        help="write the fabric's metrics registry as Prometheus text",
    )
    p.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="enable causal tracing; write per-host JSONL traces plus a "
        "merged cross-host Chrome trace into this directory",
    )
    p.add_argument(
        "--flight-dir",
        metavar="DIR",
        help="arm the flight recorder; invariant violations dump "
        "FLIGHT_*.json artifacts into this directory",
    )
    p.add_argument(
        "--disable-m-vector",
        action="store_true",
        help="ablate the membership-ordering vector M (deliberately "
        "broken protocol; pairs with --expect-violation)",
    )
    p.add_argument(
        "--frr",
        action="store_true",
        help="enable fast reroute: precomputed backup fragments activate "
        "on local failure detection and reconcile on repair install",
    )
    p.add_argument(
        "--expect-violation",
        action="store_true",
        help="invert the exit code: succeed only if the soak violated an "
        "invariant",
    )
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "stress",
        help="systematic state-space exploration of arbitration schedules",
    )
    p.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="scenario to explore (repeatable; default: the CI gate set)",
    )
    p.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    p.add_argument(
        "--strategy",
        choices=("dfs", "bfs", "guided"),
        default="dfs",
        help="exploration order (dfs/bfs exhaust, guided chases violations)",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=250_000,
        help="max state transitions (replays included) per scenario",
    )
    p.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="truncate schedules beyond this many steps",
    )
    p.add_argument(
        "--loss-branching",
        action="store_true",
        help="also branch on dropping each pending LSA",
    )
    p.add_argument(
        "--max-drops",
        type=int,
        default=1,
        help="max LSAs dropped along one schedule (with --loss-branching)",
    )
    p.add_argument(
        "--max-counterexamples",
        type=int,
        default=1,
        help="stop a scenario after this many counterexamples",
    )
    p.add_argument(
        "--no-minimize",
        action="store_true",
        help="keep counterexample schedules as found (skip 1-minimization)",
    )
    p.add_argument(
        "--disable-m-vector",
        action="store_true",
        help="ablate the membership-ordering vector M (should break)",
    )
    p.add_argument(
        "--disable-degraded-repair",
        action="store_true",
        help="ablate degraded-tree repair on link-up (should break)",
    )
    p.add_argument(
        "--frr",
        action="store_true",
        help="explore with fast reroute enabled (backup-fragment state "
        "is canonically invisible, so the state space must match)",
    )
    p.add_argument(
        "--out",
        metavar="DIR",
        help="write minimized counterexamples as JSON into this directory",
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        help="write exploration counters as Prometheus text",
    )
    p.add_argument(
        "--replay",
        metavar="PATH",
        help="replay a counterexample JSON instead of exploring",
    )
    p.add_argument(
        "--expect-counterexample",
        action="store_true",
        help="invert the exit code: succeed only if a violation was found",
    )
    p.add_argument(
        "--require-exhaustive",
        action="store_true",
        help="fail unless every scenario's state space was exhausted",
    )
    p.set_defaults(func=_cmd_stress)

    p = sub.add_parser(
        "dataplane",
        help="batched Zipf traffic through compiled forwarding state",
    )
    p.add_argument("--switches", type=int, default=30)
    p.add_argument("--groups", type=int, default=100)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument(
        "--zipf-s",
        type=float,
        default=1.1,
        help="Zipf popularity exponent across group ranks",
    )
    p.add_argument("--phases", type=int, default=2, help="churn phases")
    p.add_argument(
        "--events", type=int, default=16, help="churn events per phase"
    )
    p.add_argument(
        "--batches", type=int, default=2, help="traffic batches per phase"
    )
    p.add_argument(
        "--batch-size", type=int, default=256, help="packets per batch"
    )
    p.add_argument(
        "--max-members",
        type=int,
        default=12,
        help="initial member count of the most popular group",
    )
    p.add_argument(
        "--reference-sample",
        type=int,
        default=64,
        help="packets to shadow through the reference engine for the "
        "delivery-equivalence check (0 disables; exit code reflects it)",
    )
    p.add_argument(
        "--mospf",
        action="store_true",
        help="also replay the workload through the MOSPF baseline",
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        help="write the deployment's metrics registry as Prometheus text",
    )
    p.set_defaults(func=_cmd_dataplane)

    p = sub.add_parser(
        "obs", help="observability artifact tools (trace merge)"
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    m = obs_sub.add_parser(
        "merge",
        help="fuse per-host JSONL traces into one cross-host Chrome trace",
    )
    m.add_argument(
        "traces",
        nargs="+",
        metavar="JSONL",
        help="per-host JSONL trace files (clock_sync metadata aligns them)",
    )
    m.add_argument(
        "--out",
        required=True,
        metavar="PATH",
        help="path of the merged Chrome trace JSON",
    )
    m.set_defaults(func=_cmd_obs_merge)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
