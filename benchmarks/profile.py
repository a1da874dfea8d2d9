#!/usr/bin/env python3
"""Sampled layer shares of the end-to-end workloads.

Runs each workload's timed pass (``passes.timed_pass`` of
``benchmarks/e2e``, imported and never edited) in a fresh process with
:class:`repro.obs.sampler.Sampler` armed only while a timed section runs
the program: the callable ``Scenario._timed`` times, or on the live
workload, whose rounds bypass ``_timed``, ``LiveScenario._fire`` (fire
one event and await quiescence).  Per workload it writes the pass's
``op_ms_p50`` and input digest, each layer's share of the samples and its
sampled ms per event (share x ``op_ms_p50``), and the top functions and
caller -> function pairs::

    python3 benchmarks/profile.py              # BENCH_profile.json, 12 s per workload
    python3 benchmarks/profile.py --quick      # benchmarks/results/BENCH_profile_quick.json
    python3 benchmarks/profile.py --workload churn_sparse_n400   # one, printed

``--calls`` adds a deterministic count beside the sampled shares: each
workload's seeded prefix (the rounds whose input digest the benchmark
reports) runs again in a fresh process under ``sys.setprofile``, outside
any timed section, and the calls into ``repro`` functions (generator
resumes included) are counted per event in total, per layer and for the
top functions.  Two fresh processes give the same counts (on the
simulated workloads; the live one varies with OS timing), so a wall-time
difference too small to resolve can be checked against them::

    python3 benchmarks/profile.py --quick --calls
    python3 benchmarks/profile.py --workload linkflap_frr_n60 --calls   # the counts, printed

Like ``benchmarks/e2e/run.py`` it runs with ``PYTHONHASHSEED=0`` and a
pinned address-space layout (it borrows that script's bootstrap).  The
file name shadows the standard library's ``profile`` for scripts run from
``benchmarks/``; nothing there imports it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FULL_OUT = ROOT / "BENCH_profile.json"
QUICK_OUT = ROOT / "benchmarks" / "results" / "BENCH_profile_quick.json"
FULL_SECONDS = 12.0
QUICK_SECONDS = 2.0


def profile_workload(name: str, seed: int, seconds: float, quick: bool) -> dict:
    """One sampled timed pass in this process."""
    from e2e import passes, workloads
    from e2e.scenarios import LiveScenario, Scenario

    from repro.obs.sampler import Sampler

    timed, fire = Scenario._timed, LiveScenario._fire
    with Sampler() as sampler:

        def sampled_timed(scenario, fn):
            def armed():
                with sampler.armed():
                    return fn()

            return timed(scenario, armed)

        async def sampled_fire(scenario, event):
            with sampler.armed():
                return await fire(scenario, event)

        Scenario._timed, LiveScenario._fire = sampled_timed, sampled_fire
        try:
            result = passes.timed_pass(workloads.SPECS[name], seed, seconds, quick)
        finally:
            Scenario._timed, LiveScenario._fire = timed, fire
    if result["failed"]:
        raise RuntimeError(f"{name}: {result['failed']} operations failed: {result['failures']}")
    report = sampler.report()
    p50 = result["metrics"]["op_ms_p50"]
    report["layers"] = {
        layer: {"share": share, "ms_per_event": share * p50}
        for layer, share in report["layers"].items()
    }
    return {
        "op_ms_p50": p50,
        "events_sha256": result["info"]["events_sha256"],
        "rounds": result["info"]["rounds"],
        **report,
    }


def count_calls(name: str, seed: int, quick: bool) -> dict:
    """Calls into ``repro`` per event over one workload's seeded prefix,
    in this (fresh) process; set-up runs before the profiler is on."""
    from e2e import metrics, workloads
    from e2e.clock import Clock
    from e2e.scenarios import make_scenario

    from repro.obs.sampler import TOP, layer_of

    spec = workloads.SPECS[name]
    prefix = spec.quick_prefix_rounds if quick else spec.prefix_rounds
    scenario = make_scenario(spec, seed, Clock())
    scenario.setup()
    window = metrics.Window()
    counts: dict = {}
    #: code -> the module its frames run in (the sampler's rule: a
    #: dataclass's generated ``__init__`` belongs to the declaring module)
    modules: dict = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            count = counts.get(code)
            if count is None:
                modules[code] = frame.f_globals.get("__name__", "")
                counts[code] = 1
            else:
                counts[code] = count + 1

    sys.setprofile(hook)
    try:
        for _ in range(prefix):
            window.add(scenario.next_round(None))
    finally:
        sys.setprofile(None)
        scenario.teardown()
    if window.failed:
        raise RuntimeError(f"{name}: {window.failed} operations failed: {scenario.failures}")

    layers: Counter = Counter()
    functions: Counter = Counter()
    for code, count in counts.items():
        module = modules[code]
        if module != "repro" and not module.startswith("repro."):
            continue
        layers[layer_of(module)] += count
        functions[f"{module}.{getattr(code, 'co_qualname', code.co_name)}"] += count
    events = window.events
    return {
        "prefix_rounds": prefix,
        "events": events,
        "per_event": sum(layers.values()) / events,
        "layers": {layer: count / events for layer, count in layers.most_common()},
        "functions": [
            {"function": function, "per_event": count / events}
            for function, count in functions.most_common(TOP)
        ],
    }


def _run_workload(name: str, seed: int, quick: bool, calls: bool) -> dict:
    """``main --workload name`` in a fresh process; its printed record."""
    cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if calls:
        cmd.append("--calls")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{name} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="profile one workload here and print it")
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:g} s per workload, short prefix")
    parser.add_argument("--calls", action="store_true",
                        help="also count calls into repro per event over the seeded "
                             "prefix, in a fresh process per workload (with "
                             "--workload: print only those counts)")
    args = parser.parse_args(argv)
    seconds = QUICK_SECONDS if args.quick else FULL_SECONDS

    from e2e.run import _bootstrap

    _bootstrap()
    from e2e import workloads

    if args.workload is not None:
        if args.calls:
            record = count_calls(args.workload, args.seed, args.quick)
        else:
            record = profile_workload(args.workload, args.seed, seconds, args.quick)
        print(json.dumps(record, sort_keys=True))
        return 0

    report = {"seed": args.seed, "seconds": seconds, "quick": args.quick, "workloads": {}}
    for name in workloads.SPECS:
        record = _run_workload(name, args.seed, args.quick, calls=False)
        report["workloads"][name] = record
        top = sorted(record["layers"].items(), key=lambda kv: -kv[1]["share"])[:4]
        line = (f"{name}: {record['samples']} samples, op_ms_p50 {record['op_ms_p50']:.3f}; "
                + ", ".join(f"{layer} {v['share']:.0%}" for layer, v in top))
        if args.calls:
            record["calls"] = _run_workload(name, args.seed, args.quick, calls=True)
            line += f"; {record['calls']['per_event']:,.0f} calls per event"
        print(line)
    out = QUICK_OUT if args.quick else FULL_OUT
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
