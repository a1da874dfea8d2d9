"""The abstract's generality claim, quantified across all three MC types.

"The protocol is generic in that it can be used with MCs of different
types, including symmetric MCs, receiver-only MCs, and asymmetric MCs.
Results of a simulation study show that this generality can be achieved
with negligible (in normal traffic periods) to moderate (in very busy
periods) signaling overhead."

The figure experiments use symmetric MCs; this benchmark reruns the sparse
and bursty workloads for each MC type and checks that the overhead bands
hold regardless of type: ~1 computation and flooding per event when
sparse, bounded single digits per event when bursty, agreement always.
"""

from __future__ import annotations

import statistics
from dataclasses import replace

from conftest import write_result

from repro.harness.experiment import run_trial
from repro.harness.figures import (
    EXP1_COMPUTE,
    EXP1_PER_HOP,
    _bursty_scenario,
    _sparse_scenario,
)
from repro.sim.rng import RngRegistry

TYPES = ("symmetric", "receiver-only", "asymmetric")
N = 40
SEEDS = range(4)


def _study():
    rows = {}
    for ctype in TYPES:
        sparse_comp, sparse_flood, bursty_comp, agreed = [], [], [], True
        for seed in SEEDS:
            reg = RngRegistry(seed).fork("generality")
            scenario = replace(
                _sparse_scenario(N, 0, reg), connection_type=ctype
            )
            m = run_trial(scenario)
            agreed &= m.agreed
            sparse_comp.append(m.computations_per_event)
            sparse_flood.append(m.floodings_per_event)

            reg2 = RngRegistry(seed + 100).fork("generality-burst")
            burst = replace(
                _bursty_scenario(N, 0, reg2, EXP1_PER_HOP, EXP1_COMPUTE, "gen"),
                connection_type=ctype,
            )
            mb = run_trial(burst)
            agreed &= mb.agreed
            bursty_comp.append(mb.computations_per_event)
        rows[ctype] = (
            statistics.mean(sparse_comp),
            statistics.mean(sparse_flood),
            statistics.mean(bursty_comp),
            agreed,
        )
    return rows


def test_generality_across_mc_types(benchmark, results_dir):
    rows = benchmark.pedantic(_study, rounds=1, iterations=1)
    lines = [
        f"One protocol, three MC types (n={N}, mean over {len(SEEDS)} seeds)",
        "=" * 64,
        f"{'MC type':>14} | {'sparse comp/ev':>14} | {'sparse flood/ev':>15} "
        f"| {'bursty comp/ev':>14} | agreed",
        "-" * 72,
    ]
    for ctype, (sc, sf, bc, ok) in rows.items():
        lines.append(
            f"{ctype:>14} | {sc:>14.3f} | {sf:>15.3f} | {bc:>14.3f} "
            f"| {'yes' if ok else 'NO'}"
        )
    text = "\n".join(lines)
    write_result(results_dir, "generality.txt", text)
    print("\n" + text)

    for ctype, (sc, sf, bc, ok) in rows.items():
        assert ok, f"{ctype} trials disagreed"
        # "negligible (in normal traffic periods)"
        assert sc <= 1.3, f"{ctype}: sparse computations {sc}"
        assert sf <= 1.3, f"{ctype}: sparse floodings {sf}"
        # "moderate (in very busy periods)"
        assert bc <= 12.0, f"{ctype}: bursty computations {bc}"
