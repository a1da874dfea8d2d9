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

from repro.harness.experiment import run_brute_force_trial, run_dgmc_trial
from repro.harness.figures import _sparse_scenario
from repro.harness.metrics import load_distribution
from repro.sim.rng import RngRegistry

from repro.baselines.brute_force import BruteForceNetwork
from repro.core import DgmcNetwork, JoinEvent, LeaveEvent, ProtocolConfig

N = 60
SEEDS = range(5)


def _run_pair(seed: int):
    reg = RngRegistry(seed).fork("load")
    scenario = _sparse_scenario(N, 0, reg)
    config = ProtocolConfig(
        compute_time=scenario.compute_time, per_hop_delay=scenario.per_hop_delay
    )

    dgmc = DgmcNetwork(scenario.net.copy(), config)
    dgmc.register_symmetric(1)
    bf = BruteForceNetwork(
        scenario.net.copy(),
        compute_time=scenario.compute_time,
        per_hop_delay=scenario.per_hop_delay,
    )
    bf.register_symmetric(1)

    t = 4.0 * scenario.round_length
    for sw in sorted(scenario.schedule.initial_members):
        dgmc.inject(JoinEvent(sw, 1), at=t)
        bf.inject_join(sw, 1, at=t)
        t += 4.0 * scenario.round_length
    offset = t + 4.0 * scenario.round_length
    for ev in scenario.schedule.events:
        if ev.join:
            dgmc.inject(JoinEvent(ev.switch, 1), at=offset + ev.time)
            bf.inject_join(ev.switch, 1, at=offset + ev.time)
        else:
            dgmc.inject(LeaveEvent(ev.switch, 1), at=offset + ev.time)
            bf.inject_leave(ev.switch, 1, at=offset + ev.time)
    dgmc.run()
    bf.run()
    return (
        load_distribution(dgmc.computation_log, N),
        load_distribution(bf.computation_log, N),
    )


def _study():
    rows = []
    for seed in SEEDS:
        dgmc_dist, bf_dist = _run_pair(seed)
        rows.append((dgmc_dist, bf_dist))
    return rows


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
