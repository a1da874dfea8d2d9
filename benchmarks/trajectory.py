#!/usr/bin/env python3
"""The measurement trajectory, rendered from git.

The committed root files ``BENCH_e2e.json`` (``benchmarks/e2e/run.py
--out``), ``BENCH_profile.json`` (``benchmarks/profile.py``) and
``BENCH_scaling.json`` (``benchmarks/scaling.py``) are the record.  This
script walks ``git log`` over each, reads every version with ``git show
<rev>:<file>``, adds the working tree when it differs from ``HEAD``, and
prints Markdown tables with one row per commit that changed the file:

* ``op_ms_p50`` per workload;
* calls into ``repro`` per event, in total and per layer, one table per
  workload (blank where that version of the profile counted no calls);
* the top three sampled layers per workload;
* each ``BENCH_scaling.json`` run's log-log slopes, once, at the commit
  that recorded it.

Run it from anywhere; it reads only local history and takes no options::

    python3 benchmarks/trajectory.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
E2E, PROFILE, SCALING = "BENCH_e2e.json", "BENCH_profile.json", "BENCH_scaling.json"
WORKING_TREE = "working tree"

#: One version of a file: its row label and its parsed content.
Version = Tuple[str, dict]


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=repo, capture_output=True, check=True
    ).stdout


def versions(repo: Path, name: str) -> List[Version]:
    """Every committed version of ``name``, oldest first, then the working
    tree's when it differs from ``HEAD``'s."""
    log = git(repo, "log", "--reverse", "--diff-filter=ACMRT", "--format=%h", "--", name)
    out, last = [], None
    for rev in log.decode().split():
        last = git(repo, "show", f"{rev}:{name}")
        out.append((rev, json.loads(last)))
    path = repo / name
    if path.exists() and path.read_bytes() != last:
        out.append((WORKING_TREE, json.loads(path.read_bytes())))
    return out


def fmt(x: Optional[float]) -> str:
    """Four significant digits, at most three decimals; blank for None."""
    if x is None:
        return ""
    if x == 0:
        return "0"
    decimals = min(3, max(0, 3 - math.floor(math.log10(abs(x)))))
    return f"{x:.{decimals}f}"


def label(rev: str) -> str:
    return rev if rev == WORKING_TREE else f"`{rev}`"


def table(title: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    return [
        f"## {title}", "",
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
        *("| " + " | ".join(row) + " |" for row in rows),
        "",
    ]


def workloads(history: Sequence[Version]) -> List[str]:
    return sorted({w for _, data in history for w in data["workloads"]})


def e2e_tables(history: Sequence[Version]) -> List[str]:
    names = workloads(history)
    rows = [
        [label(rev), *(fmt(data["workloads"].get(w, {}).get("end_to_end", {}).get("op_ms_p50"))
                       for w in names)]
        for rev, data in history
    ]
    return table(f"`op_ms_p50` per workload, ms (`{E2E}`)",
                 ["commit", *(f"`{w}`" for w in names)], rows)


def profile_tables(history: Sequence[Version]) -> List[str]:
    lines: List[str] = []
    names = workloads(history)
    for w in names:
        counted = [data["workloads"].get(w, {}).get("calls", {}) for _, data in history]
        layers = sorted({layer for calls in counted for layer in calls.get("layers", {})})
        rows = [
            [label(rev), fmt(calls.get("per_event")),
             *(fmt(calls.get("layers", {}).get(layer)) for layer in layers)]
            for (rev, _), calls in zip(history, counted)
        ]
        lines += table(f"Calls into `repro` per event: `{w}` (`{PROFILE}`)",
                       ["commit", "total", *(f"`{layer}`" for layer in layers)], rows)
    rows = [[label(rev), *(top_layers(data["workloads"].get(w)) for w in names)]
            for rev, data in history]
    return lines + table(f"Top three sampled layers (`{PROFILE}`)",
                         ["commit", *(f"`{w}`" for w in names)], rows)


def top_layers(record: Optional[dict]) -> str:
    if record is None:
        return ""
    ranked = sorted(record["layers"].items(), key=lambda item: (-item[1]["share"], item[0]))
    return ", ".join(f"`{layer}` {100.0 * v['share']:.1f}%" for layer, v in ranked[:3])


def scaling_tables(history: Sequence[Version]) -> List[str]:
    """One row per run, at the first version that holds it with this content."""
    new: List[Tuple[str, str, dict]] = []
    before: Dict[str, dict] = {}
    for rev, data in history:
        for name, run in sorted(data["runs"].items()):
            if before.get(name) != run:
                new.append((rev, name, run))
        before = data["runs"]
    slopes = sorted({key for _, _, run in new for key in run["slopes"]})
    rows = [
        [label(rev), f"`{name}`", ", ".join(str(size["n"]) for size in run["sizes"]),
         *(fmt(run["slopes"].get(key)) for key in slopes)]
        for rev, name, run in new
    ]
    return table(f"Log-log slopes over n (`{SCALING}`)",
                 ["commit", "run", "n", *(f"`{key}`" for key in slopes)], rows)


def render(repo: Path) -> str:
    files = (E2E, PROFILE, SCALING)
    log = git(repo, "log", "--reverse", "--format=%h %s", "--", *files).decode()
    lines = [
        "# Measurement trajectory", "",
        "Rendered by `benchmarks/trajectory.py` from the git history of "
        + ", ".join(f"`{name}`" for name in files)
        + ": one row per commit that changed the file.", "",
        "## Commits", "",
    ]
    for line in log.splitlines():
        rev, _, subject = line.partition(" ")
        lines.append(f"- `{rev}` {subject}")
    lines.append("")
    for name, tables in zip(files, (e2e_tables, profile_tables, scaling_tables)):
        history = versions(repo, name)
        if history:
            lines += tables(history)
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    if argv:
        print(f"usage: {Path(sys.argv[0]).name} (takes no arguments)", file=sys.stderr)
        return 2
    print(render(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
