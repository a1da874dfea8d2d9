#!/usr/bin/env python3
"""Cost of a churn event as a function of n: the curve, and its slope.

Runs the ``churn_sparse_n400`` workload of ``benchmarks/e2e`` at other
sizes -- ``dataclasses.replace(SPECS[...], n=n, topo_seed=n * 10**4 + 1996)``,
nothing else changed -- each size in a fresh process, and reports per
size:

* ``op_ms_p50`` and the sampled layer shares of one timed pass
  (``passes.timed_pass`` under :mod:`repro.obs.sampler`, armed through
  ``benchmarks/profile.py``), with ``core.switch`` + ``core.timestamp``
  (the arbitration) and ``trees`` (the topology computations) in ms per
  event;
* from a second, unsampled run of the workload's fixed prefix of rounds:
  LSA deliveries, installs, kernel events, computations and floodings
  per event (seeded, so they repeat exactly);

and a least-squares log-log slope of each against n.  A slope near 1 is
cost linear in n::

    python3 benchmarks/scaling.py               # n = 50 .. 400, ~2 min
    python3 benchmarks/scaling.py --quick       # 1 s per size, short prefix

Each run is merged into the report under ``--label`` (default ``HEAD``),
so one file holds the curves of several commits: the full run into root
``BENCH_scaling.json``, ``--quick`` into
``benchmarks/results/BENCH_scaling_quick.json``.  Nothing is gated.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]
FULL_OUT = ROOT / "BENCH_scaling.json"
QUICK_OUT = ROOT / "benchmarks" / "results" / "BENCH_scaling_quick.json"
WORKLOAD = "churn_sparse_n400"
SIZES = (50, 100, 200, 400)
FULL_SECONDS = 4.0
QUICK_SECONDS = 1.0
SEED = 1996
#: Per-event counts of the prefix run: metrics-registry sample -> report key.
COUNTS = {
    "lsa_deliveries_total": "lsa_deliveries_per_event",
    "sim_events_dispatched_total": "kernel_events_per_event",
    "computations_total": "computations_per_event",
    "flood_operations_total": "floodings_per_event",
}
#: The layers whose sum is the ReceiveLSA() bookkeeping the curve watches.
ARBITRATION = ("core.switch", "core.timestamp")
#: The layer of the topology computations, watched beside it.
TREES = "trees"


def scaled_spec(n: int):
    """The workload's spec at ``n`` switches (registered under a new name)."""
    from e2e import workloads

    base = workloads.SPECS[WORKLOAD]
    spec = dataclasses.replace(
        base, name=f"{WORKLOAD}@n{n}", n=n, topo_seed=n * 10**4 + 1996
    )
    workloads.SPECS[spec.name] = spec
    return spec


def prefix_counts(spec, seed: int, quick: bool) -> Dict[str, float]:
    """Per-event protocol counts over the workload's seeded prefix."""
    from e2e.clock import Clock
    from e2e.scenarios import make_scenario

    scenario = make_scenario(spec, seed, Clock())
    scenario.setup()
    try:
        dgmc = scenario.dgmc
        before = dgmc.metrics.snapshot()
        installs = len(dgmc.install_log)
        events = 0
        for _ in range(spec.quick_prefix_rounds if quick else spec.prefix_rounds):
            events += scenario.next_round(None).events
        after = dgmc.metrics.snapshot()
        out = {
            key: (after[sample] - before[sample]) / events
            for sample, key in COUNTS.items()
        }
        out["installs_per_event"] = (len(dgmc.install_log) - installs) / events
        if "receive_memo_hits_total" in after:
            hits, misses = (
                after[k] - before[k]
                for k in ("receive_memo_hits_total", "receive_memo_misses_total")
            )
            out["receive_memo_hit_ratio"] = hits / max(1.0, hits + misses)
        return out
    finally:
        scenario.teardown()


def measure(n: int, quick: bool) -> dict:
    """One size, in this process: the sampled timed pass, then the counts."""
    from profile import profile_workload

    spec = scaled_spec(n)
    seconds = QUICK_SECONDS if quick else FULL_SECONDS
    sampled = profile_workload(spec.name, SEED, seconds, quick)
    layers = sampled["layers"]
    return {
        "n": n,
        "op_ms_p50": sampled["op_ms_p50"],
        "events_sha256": sampled["events_sha256"],
        "samples": sampled["samples"],
        "arbitration_ms_per_event": sum(
            layers.get(layer, {}).get("ms_per_event", 0.0) for layer in ARBITRATION
        ),
        "trees_ms_per_event": layers.get(TREES, {}).get("ms_per_event", 0.0),
        "layer_shares": {layer: v["share"] for layer, v in layers.items()},
        **prefix_counts(spec, SEED, quick),
    }


def slope(points: Sequence[tuple]) -> float:
    """Least-squares slope of log(y) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


def report(rows: List[dict]) -> dict:
    keys = [
        "op_ms_p50", "arbitration_ms_per_event", "trees_ms_per_event",
        "lsa_deliveries_per_event",
        "installs_per_event", "kernel_events_per_event",
    ]
    return {
        key: slope([(row["n"], row[key]) for row in rows if row[key] > 0])
        for key in keys
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:g} s timed pass per size (not "
                        f"{FULL_SECONDS:g} s) and a short prefix; writes under "
                        "benchmarks/results")
    parser.add_argument("--label", default="HEAD",
                        help="key of this run in the report (default %(default)s)")
    parser.add_argument("--out", type=Path, default=None,
                        help="report to merge this run into (default: root "
                        "BENCH_scaling.json, or benchmarks/results with --quick)")
    parser.add_argument("--n", type=int, help=argparse.SUPPRESS)  # one size, in-process
    args = parser.parse_args(argv)

    from e2e.run import _bootstrap

    _bootstrap()
    if args.n is not None:
        print(json.dumps(measure(args.n, args.quick), sort_keys=True))
        return 0

    rows = []
    for n in SIZES:
        cmd = [sys.executable, __file__, "--n", str(n)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise RuntimeError(f"n={n} exited {proc.returncode}")
        row = json.loads(proc.stdout.splitlines()[-1])
        rows.append(row)
        print(f"n={n:5d}  op_ms_p50 {row['op_ms_p50']:7.3f}  "
              f"switch+timestamp {row['arbitration_ms_per_event']:6.3f} ms  "
              f"trees {row['trees_ms_per_event']:6.3f} ms  "
              f"deliveries {row['lsa_deliveries_per_event']:8.1f}  "
              f"installs {row['installs_per_event']:8.1f}")
    slopes = report(rows)
    print("log-log slopes: " + ", ".join(f"{k} {v:.2f}" for k, v in slopes.items()))
    out = args.out or (QUICK_OUT if args.quick else FULL_OUT)
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"] if out.exists() else {}
    runs[args.label] = {
        "seed": SEED, "seconds": QUICK_SECONDS if args.quick else FULL_SECONDS,
        "quick": args.quick, "sizes": rows, "slopes": slopes,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps({"workload": WORKLOAD, "runs": runs}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote run {args.label!r} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
