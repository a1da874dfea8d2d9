"""Command-line interface: ``python -m repro <command>``.

``repro --help`` lists the commands and ``repro <command> --help`` their
options.
"""

from __future__ import annotations

import argparse
import random
from time import perf_counter
from typing import Any, List, Optional

from repro.core import DgmcNetwork, JoinEvent, LeaveEvent, LinkEvent, ProtocolConfig


def _write_metrics(path: Optional[str], text: str) -> None:
    """Write a Prometheus text dump to ``path`` when one was given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote metrics dump to {path}")


def _print_trace(path: Optional[str]) -> None:
    """Name the file a :func:`repro.obs.tracer.traced_run` block wrote."""
    if path:
        print(f"wrote Chrome trace to {path}")


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


def _join_burst(switches: int, members: int, seed: int):
    """A seeded Waxman network with a conflicting burst of ``members``
    joins to connection 1 injected, and the joining switches.

    Raises ``ValueError`` unless ``1 <= members <= switches``.
    """
    from repro.topo.generators import waxman_network

    if not 1 <= members <= switches:
        raise ValueError(f"need 1 <= members <= switches, got {members} / {switches}")
    rng = random.Random(seed)
    net = waxman_network(switches, rng)
    dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
    dgmc.register_symmetric(1)
    joiners = rng.sample(range(net.n), members)
    for sw in joiners:
        dgmc.inject(JoinEvent(sw, 1), at=1.0 + rng.random())
    return dgmc, joiners


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.tracer import JsonlSink, RingBufferSink, Tracer, use_tracer
    from repro.obs.timeline import (
        build_timeline,
        convergence_profile,
        render_timeline,
    )

    try:
        dgmc, _ = _join_burst(args.switches, args.members, args.seed)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    dgmc.fabric.record_history = True
    tracer = Tracer(enabled=bool(args.export_trace or args.export_jsonl))
    if tracer.enabled:
        tracer.add_sink(RingBufferSink())
    if args.export_jsonl:
        tracer.add_sink(JsonlSink(args.export_jsonl))
    try:
        with use_tracer(tracer):
            dgmc.run()
    finally:
        tracer.close()
    ok, detail = dgmc.agreement(1)
    print(f"burst of {args.members} joins on {args.switches} switches; agreement: {ok}\n")
    print(render_timeline(build_timeline(dgmc, connection_id=1), limit=args.limit))
    print("\nconvergence profile (switches settled over time):")
    for t, count in convergence_profile(dgmc, 1):
        print(f"  t={t:9.4f}  {count:3d}/{args.switches}")
    if args.export_trace:
        written = tracer.export_chrome(args.export_trace)
        print(f"\nwrote {written} trace events to {args.export_trace}")
    if args.export_jsonl:
        print(f"wrote JSONL trace to {args.export_jsonl}")
    _write_metrics(args.metrics, dgmc.metrics.to_prometheus())
    return 0 if ok else 1


#: Samples ``repro profile`` collects: ``PROFILE_SAMPLES[quick]``.
PROFILE_SAMPLES = (2000, 200)


def _profile_workload(switches: int, members: int, flaps: int, seed: int):
    """The join burst, then leave/rejoin churn of half the members, then
    ``flaps`` link failures and repairs, so every layer does work."""
    dgmc, joiners = _join_burst(switches, members, seed)
    t = 100.0
    for sw in joiners[: members // 2]:
        dgmc.inject(LeaveEvent(sw, 1), at=t)
        dgmc.inject(JoinEvent(sw, 1), at=t + 25.0)
        t += 50.0
    for link in list(dgmc.net.links())[:flaps]:
        dgmc.inject(LinkEvent(link.u, link.u, link.v, up=False), at=t)
        dgmc.inject(LinkEvent(link.u, link.u, link.v, up=True), at=t + 25.0)
        t += 50.0
    return dgmc


def sample_profile(quick: bool = False, seed: int = 1996,
                   switches: Optional[int] = None, members: Optional[int] = None) -> dict:
    """Sample the profile workload until ``PROFILE_SAMPLES[quick]`` samples.

    Each round runs a fresh deployment (default 48 switches and 16
    members, 16 and 6 with ``quick``) with the sampler armed only around
    ``dgmc.run()``.  Returns :meth:`Sampler.report` plus ``named`` (the
    share the layers of :data:`~repro.obs.sampler.LAYERS` hold),
    ``rounds``, ``ms_per_round`` (mean armed wall time) and one round's
    ``events_per_round`` and ``sim_time``.
    """
    from repro.obs.sampler import LAYERS, Sampler

    n = switches if switches is not None else (16 if quick else 48)
    joiners = members if members is not None else (6 if quick else 16)
    rounds, armed_s = 0, 0.0
    with Sampler() as sampler:
        while sampler.samples < PROFILE_SAMPLES[quick]:
            dgmc = _profile_workload(n, joiners, 2 if quick else 6, seed)
            with sampler.armed():
                start = perf_counter()
                dgmc.run()
                armed_s += perf_counter() - start
            rounds += 1
    report = sampler.report()
    return {
        **report,
        "named": sum(report["layers"].get(layer, 0.0) for layer in LAYERS),
        "rounds": rounds,
        "ms_per_round": armed_s * 1e3 / rounds,
        "events_per_round": dgmc.sim.events_dispatched,
        "sim_time": dgmc.sim.now,
    }


def _cmd_profile(args: argparse.Namespace) -> int:
    try:
        report = sample_profile(
            quick=args.quick, seed=args.seed,
            switches=args.switches, members=args.members,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    ms = report["ms_per_round"]
    print(
        f"{report['samples']} samples over {report['rounds']} rounds: "
        f"{ms:.2f} ms, {report['events_per_round']} kernel events and "
        f"sim time {report['sim_time']:.1f} per round"
    )
    print(f"\n  {'layer':<16} {'share':>6} {'ms/round':>9}")
    for layer, share in report["layers"].items():
        print(f"  {layer:<16} {share:6.1%} {share * ms:9.2f}")
    named = report["named"]
    print(f"  {'named layers':<16} {named:6.1%}")
    print("\ntop functions:")
    for row in report["functions"]:
        print(f"  {row['share']:6.1%}  {row['function']}")
    print("\ntop callers:")
    for row in report["callers"]:
        print(f"  {row['share']:6.1%}  {row['caller']} -> {row['function']}")
    if named < 0.9:
        print(f"warning: named layers hold only {named:.1%} of the samples "
              "(expected >= 90%)")
        return 1
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    from repro.net.equiv import (
        check_equivalence,
        make_scenario,
        run_discrete,
        run_live,
    )
    from repro.obs.tracer import traced_run

    scenario = make_scenario(
        switches=args.switches, seed=args.seed, events=args.events
    )
    with traced_run(args.trace_dir, f"live_s{args.seed}") as trace:
        result = run_live(scenario, loss=args.loss)
    _print_trace(trace)
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
    _write_metrics(args.metrics, result.prom)
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
    _write_metrics(args.metrics, report.prom)
    _print_trace(report.trace_file)
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
    from repro.obs.metrics import MetricsRegistry
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
        loss_branching=args.loss_branching,
        max_drops=args.max_drops,
        config_overrides=overrides,
    )
    registry = MetricsRegistry()
    failed_invariants = []
    not_exhaustive = []
    for name in names:
        scenario = get_scenario(name)
        report = explore(scenario, options)
        for line in report.summary_lines():
            print(line)
        attach_stress_metrics(report, registry)
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
    _write_metrics(args.metrics, registry.to_prometheus())

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
        phases=args.phases,
        events_per_phase=args.events,
        batches_per_phase=args.batches,
        batch_size=args.batch_size,
    )
    result = replay_workload(
        dgmc, workload, hop_delay=0.05, reference_sample=args.reference_sample
    )
    print(
        f"zipf(s={workload.s:g}) workload: {args.groups} groups on "
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
    _write_metrics(args.metrics, dgmc.metrics.to_prometheus())
    return 0 if ok else 1


def _shared(*flags: str, **kwargs: Any) -> argparse.ArgumentParser:
    """A parent parser declaring one option for every verb that reads it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    seed = _shared("--seed", type=int, default=1996)
    metrics = _shared(
        "--metrics",
        metavar="PATH",
        help="write the run's metrics registry as Prometheus text",
    )
    trace_dir = _shared(
        "--trace-dir",
        metavar="DIR",
        help="enable causal tracing; write the run as one Chrome trace, "
        "one lane per host, into this directory, also when the run fails",
    )
    m_vector = _shared(
        "--disable-m-vector",
        action="store_true",
        help="ablate the membership-ordering vector M (a deliberately "
        "broken protocol)",
    )
    frr = _shared(
        "--frr",
        action="store_true",
        help="enable fast reroute (backup fragments activate on local "
        "failure detection and reconcile on repair install)",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="D-GMC reproduction (Huang & McKinley, ICDCS 1996)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="regenerate Figures 6-8", parents=[seed])
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser(
        "compare", help="D-GMC vs MOSPF vs brute-force", parents=[seed]
    )
    p.add_argument("--quick", action="store_true")
    p.add_argument("--bursty", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "trace",
        help="timeline of a conflicting join burst",
        parents=[seed, metrics],
    )
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
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "profile",
        help="sampled layer, function and caller shares of a churn run",
        parents=[seed],
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

    p = sub.add_parser(
        "live",
        help="run switches live over loopback UDP",
        parents=[seed, metrics, trace_dir],
    )
    p.add_argument("--switches", type=int, default=12)
    p.add_argument("--events", type=int, default=8)
    p.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="injected datagram loss probability (0..1)",
    )
    p.add_argument(
        "--check-equivalence",
        action="store_true",
        help="also run the discrete-event backend and compare final trees",
    )
    p.set_defaults(func=_cmd_live)

    p = sub.add_parser(
        "chaos",
        help="seeded crash/partition/churn soak on the live backend",
        parents=[seed, metrics, trace_dir, m_vector, frr],
    )
    p.add_argument("--switches", type=int, default=12)
    p.add_argument(
        "--actions",
        type=int,
        default=20,
        help="scheduled fault/churn actions (cleanup actions come on top)",
    )
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
        "--flight-dir",
        metavar="DIR",
        help="arm the flight recorder; invariant violations dump "
        "FLIGHT_*.json artifacts into this directory",
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
        parents=[metrics, m_vector, frr],
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
        "--disable-degraded-repair",
        action="store_true",
        help="ablate degraded-tree repair on link-up (should break)",
    )
    p.add_argument(
        "--out",
        metavar="DIR",
        help="write minimized counterexamples as JSON into this directory",
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
        help="batched Zipf traffic through cached flow templates",
        parents=[seed, metrics],
    )
    p.add_argument("--switches", type=int, default=30)
    p.add_argument("--groups", type=int, default=100)
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
    p.set_defaults(func=_cmd_dataplane)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
