"""Per-switch load study: who actually does the computing.

"The main objective of the D-GMC protocol is to reduce the overall
computational load on network switches."  Totals tell half the story; the
distribution tells the rest: under D-GMC, an event costs a computation at
the detecting switch and (under conflicts) a few peers, leaving the other
switches untouched, while the brute-force protocol computes at all n
switches for every event.
"""

from __future__ import annotations

import statistics

from conftest import write_result

from repro.harness.experiment import build_network, run_trial
from repro.harness.figures import _sparse_scenario
from repro.harness.metrics import load_distribution
from repro.sim.rng import RngRegistry

N = 60
SEEDS = range(5)


def _run_pair(seed: int):
    scenario = _sparse_scenario(N, 0, RngRegistry(seed).fork("load"))
    loads = []
    for protocol in ("dgmc", "brute-force"):
        network = build_network(scenario, protocol)
        run_trial(scenario, protocol, network=network)
        loads.append(load_distribution(network.computation_log, N))
    return tuple(loads)


def _study():
    return [_run_pair(seed) for seed in SEEDS]


def test_switch_load_distribution(benchmark, results_dir):
    rows = benchmark.pedantic(_study, rounds=1, iterations=1)
    dgmc_total = statistics.mean(d.total for d, _ in rows)
    dgmc_peak = statistics.mean(d.peak for d, _ in rows)
    dgmc_busy = statistics.mean(d.busy_switches for d, _ in rows)
    bf_total = statistics.mean(b.total for _, b in rows)
    bf_peak = statistics.mean(b.peak for _, b in rows)
    bf_busy = statistics.mean(b.busy_switches for _, b in rows)
    text = (
        f"Per-switch computation load, n={N}, sparse workload, "
        f"mean over {len(rows)} seeds\n"
        f"{'':>14}{'total':>8}{'peak/switch':>13}{'busy switches':>15}\n"
        f"{'D-GMC':>14}{dgmc_total:>8.1f}{dgmc_peak:>13.1f}{dgmc_busy:>15.1f}\n"
        f"{'brute-force':>14}{bf_total:>8.1f}{bf_peak:>13.1f}{bf_busy:>15.1f}"
    )
    write_result(results_dir, "switch_load.txt", text)
    print("\n" + text)

    # Brute force touches every switch for every event; D-GMC leaves most
    # switches idle and its busiest switch does far less work.
    assert bf_busy == N
    assert dgmc_busy < N / 2
    assert dgmc_peak < bf_peak / 4
    assert dgmc_total < bf_total / 10
