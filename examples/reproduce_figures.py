#!/usr/bin/env python3
"""Reproduce every figure of the paper's evaluation section.

Runs Experiments 1-3 (Figures 6, 7, 8) at paper scale -- network sizes 20
to 100, ten random graphs per size -- plus the Section 4 baseline
comparison on sparse and then bursty events, and prints the reproduced
panels.  This is the script that generates the numbers recorded in
EXPERIMENTS.md; it is the ``repro figures``, ``repro compare`` and
``repro compare --bursty`` commands run in turn.

Run:  python examples/reproduce_figures.py            # paper scale (~2 min)
      python examples/reproduce_figures.py --quick    # smoke scale (~15 s)
"""

from __future__ import annotations

import argparse
import time

from repro.cli import main as repro


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small sizes / few graphs"
    )
    parser.add_argument("--seed", type=int, default=1996)
    args = parser.parse_args(argv)

    shared = ["--seed", str(args.seed)] + (["--quick"] if args.quick else [])
    t0 = time.time()
    statuses = []
    for verb in (["figures"], ["compare"], ["compare", "--bursty"]):
        statuses.append(repro(verb + shared))
        print()
    print(f"total wall time: {time.time() - t0:.1f}s")
    return max(statuses)


if __name__ == "__main__":
    raise SystemExit(main())
