#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark, as one table.

Runs ``benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0``
in two checkouts -- ``--parent DIR`` and ``--change DIR`` (default: this
repository) -- alternately, the side that runs first swapped every pair so
neither always meets a warm or a cold machine.  Prints the rows of the
paired tables in docs/benchmarking.md: per end-to-end metric the inclusive
q1 / median / q3 of each side, the pairs the change won, the median
difference against the parent's inter-quartile range, and the failed
operations of each side::

    python3 benchmarks/pairs.py --parent ../parent --workload live_udp_n16
    python3 benchmarks/pairs.py --parent ../parent --workload W1 --workload W2 \\
        --pairs 4 --seconds 10

Each pair's ``op_ms_p50`` goes to stderr as it lands.

The metrics and which way is better come from the change's
``BENCHMARK.json``; nothing under ``benchmarks/e2e`` is touched.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "e2e" / "run.py"

#: One side's run: the driver's result line (``attempted``, ``failed``,
#: ``metrics: {name: {"value", "unit"}}``).
Run = dict


def parse_result(stdout: str) -> Run:
    """The last JSON object ``run.py --trace 0`` printed."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            record = json.loads(line)
            if "metrics" in record:
                return record
    raise ValueError("no result line in the pass's output")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Run:
    cmd = [
        sys.executable, str(checkout / RUNNER), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{workload} in {checkout} exited {proc.returncode}")
    return parse_result(proc.stdout)


def run_pairs(
    parent: Path, change: Path, workload: str, pairs: int, seed: int, seconds: float
) -> List[Tuple[Run, Run]]:
    """``pairs`` (parent, change) runs; the parent goes first in even pairs."""
    out = []
    for i in range(pairs):
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        got = {side: run_once(path, workload, seed, seconds) for side, path in order}
        out.append((got["parent"], got["change"]))
        p50 = {side: run["metrics"]["op_ms_p50"]["value"] for side, run in got.items()}
        print(f"# {workload} pair {i + 1}/{pairs}: op_ms_p50 parent "
              f"{p50['parent']:.3f} change {p50['change']:.3f}", file=sys.stderr)
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Inclusive q1 / median / q3 (one value is its own three quartiles)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def fmt(x: float) -> str:
    """Four significant digits, at most three decimals; ``k`` past 10^5."""
    if abs(x) >= 1e5:
        return f"{x / 1000:.1f}k"
    if x == 0:
        return "0"
    decimals = min(3, max(0, 3 - math.floor(math.log10(abs(x)))))
    return f"{x:.{decimals}f}"


def metric_row(
    name: str, better: str, parent: Sequence[float], change: Sequence[float]
) -> List[str]:
    """Cells of one metric's row: quartiles, wins, median difference."""
    if better == "lower":
        wins = sum(c < p for p, c in zip(parent, change))
        sweep = max(change) < min(parent)
    else:
        wins = sum(c > p for p, c in zip(parent, change))
        sweep = min(change) > max(parent)
    pq, cq = quartiles(parent), quartiles(change)
    iqr = pq[2] - pq[0]
    delta = cq[1] - pq[1]
    notes = [f"parent IQR {fmt(iqr)}"]
    if abs(delta) <= iqr:
        notes[0] += " — unresolved"
    if sweep:
        notes.append("every change run better than every parent run")
    percent = f"{100.0 * delta / pq[1]:+.1f}%" if pq[1] else f"{delta:+g}"
    return [
        f"`{name}`",
        " / ".join(map(fmt, pq)),
        " / ".join(map(fmt, cq)),
        f"{wins}/{len(parent)}",
        f"{percent} ({'; '.join(notes)})",
    ]


def table_rows(
    workload: str, pairs: Sequence[Tuple[Run, Run]], metrics: Sequence[dict]
) -> List[str]:
    """Markdown rows for one workload: one per metric, then failed ops."""
    parents = [p for p, _ in pairs]
    changes = [c for _, c in pairs]
    rows = []
    for i, spec in enumerate(metrics):
        name = spec["name"]
        cells = metric_row(
            name, spec["better"],
            [run["metrics"][name]["value"] for run in parents],
            [run["metrics"][name]["value"] for run in changes],
        )
        head = f"`{workload}` ({len(pairs)})" if i == 0 else ""
        rows.append("| " + " | ".join([head] + cells) + " |")
    ops = [
        f"{sum(r['failed'] for r in side):,} / {sum(r['attempted'] for r in side):,}"
        for side in (parents, changes)
    ]
    rows.append(f"|  | failed / attempted | {ops[0]} | {ops[1]} | | |")
    return rows


HEADER = [
    "| workload (pairs) | metric | parent q1 / median / q3 | change q1 / median / q3 "
    "| better in | median Δ |",
    "|---|---|---|---|---|---|",
]


def end_to_end_metrics(checkout: Path) -> List[dict]:
    with open(checkout / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="checkout of the change (default: this repository)")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to pair (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--seconds", type=float, default=18)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    metrics = end_to_end_metrics(args.change)
    rows = list(HEADER)
    for workload in args.workload:
        runs = run_pairs(
            args.parent.resolve(), args.change.resolve(), workload,
            args.pairs, args.seed, args.seconds,
        )
        rows += table_rows(workload, runs, metrics)
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
