"""Ablation studies for the design choices DESIGN.md §5 calls out.

Each ablation disables one guard of the D-GMC algorithms (Figures 4-5) and
measures what it was buying:

* **proposal withdrawal** (Figure 5 line 22) -- without it, stale
  proposals are flooded anyway: flooding overhead rises.
* **R > C suppression** -- without it, switches re-propose topologies for
  event sets already covered: computation overhead rises.
* **R >= E deferral** -- without it, switches compute eagerly while LSAs
  are known to be outstanding: wasted computations.
* **incremental vs from-scratch** (Section 3.5) -- the greedy incremental
  algorithm must keep tree cost within its rebuild threshold of the
  from-scratch heuristic.
"""

from __future__ import annotations

import statistics

from conftest import write_result

from repro.core import DgmcNetwork, JoinEvent, LeaveEvent, ProtocolConfig
from repro.harness.figures import EXP1_COMPUTE, EXP1_PER_HOP, _bursty_scenario
from repro.lsr import spf
from repro.sim.rng import RngRegistry
from repro.trees.algorithms import SharedTreeAlgorithm
from repro.trees.base import edge_weights
from repro.trees.steiner import pruned_spt_steiner_tree

SEEDS = range(6)
N = 50


def _run_with_flags(scenario, **flags):
    """One bursty trial under the given ablation flags; returns counters."""
    config = ProtocolConfig(
        compute_time=scenario.compute_time,
        per_hop_delay=scenario.per_hop_delay,
        **flags,
    )
    dgmc = DgmcNetwork(scenario.net.copy(), config)
    dgmc.register_symmetric(scenario.connection_id)
    t = 4.0 * scenario.round_length
    for sw in sorted(scenario.schedule.initial_members):
        dgmc.inject(JoinEvent(sw, scenario.connection_id), at=t)
        t += 4.0 * scenario.round_length
    dgmc.run()
    comps0, floods0 = dgmc.total_computations(), dgmc.mc_floodings()
    t0 = dgmc.sim.now + 4.0 * scenario.round_length
    for ev in scenario.schedule.events:
        event = (
            JoinEvent(ev.switch, scenario.connection_id)
            if ev.join
            else LeaveEvent(ev.switch, scenario.connection_id)
        )
        dgmc.inject(event, at=t0 + ev.time)
    dgmc.run()
    ok, detail = dgmc.agreement(scenario.connection_id)
    assert ok, detail
    return (
        dgmc.total_computations() - comps0,
        dgmc.mc_floodings() - floods0,
    )


def _ablation_table():
    rows = {"baseline": [], "no-withdrawal": [], "no-rc-gate": [], "no-re-gate": []}
    for seed in SEEDS:
        reg = RngRegistry(seed).fork("ablation")
        scenario = _bursty_scenario(
            N, seed, reg, EXP1_PER_HOP, EXP1_COMPUTE, "ablation"
        )
        rows["baseline"].append(_run_with_flags(scenario))
        rows["no-withdrawal"].append(_run_with_flags(scenario, ablate_withdrawal=True))
        rows["no-rc-gate"].append(_run_with_flags(scenario, ablate_rc_gate=True))
        rows["no-re-gate"].append(_run_with_flags(scenario, ablate_re_gate=True))
    return {
        name: (
            statistics.mean(c for c, _ in vals),
            statistics.mean(f for _, f in vals),
        )
        for name, vals in rows.items()
    }


def test_protocol_guard_ablations(benchmark, results_dir):
    table = benchmark.pedantic(_ablation_table, rounds=1, iterations=1)
    lines = [
        "Ablations (n=50, bursty, mean over 6 seeds)",
        "===========================================",
        f"{'variant':>15} | {'computations':>12} | {'floodings':>9}",
        "-" * 45,
    ]
    for name, (comp, flood) in table.items():
        lines.append(f"{name:>15} | {comp:12.1f} | {flood:9.1f}")
    text = "\n".join(lines)
    write_result(results_dir, "ablations.txt", text)
    print("\n" + text)

    base_comp, base_flood = table["baseline"]
    # Withdrawal keeps flooding overhead down.
    assert table["no-withdrawal"][1] >= base_flood
    # The R > C gate keeps computation overhead down.
    assert table["no-rc-gate"][0] >= base_comp
    # The R >= E gate never *hurts* computations.
    assert table["no-re-gate"][0] >= base_comp - 1e-9


def _incremental_cost_ratio():
    """Tree cost of greedy-incremental vs from-scratch over a join/leave run."""
    import random

    ratios = []
    for seed in SEEDS:
        rng = random.Random(seed)
        from repro.topo.generators import waxman_network

        net = waxman_network(60, rng)
        adj = spf.network_adjacency(net)
        weights = edge_weights(adj)
        incremental = SharedTreeAlgorithm()
        both = frozenset(("sender", "receiver"))
        members: set[int] = set(rng.sample(range(60), 3))
        prev = None
        for _ in range(30):
            absent = [x for x in range(60) if x not in members]
            if absent and (len(members) < 3 or rng.random() < 0.55):
                members.add(rng.choice(absent))
            else:
                members.remove(rng.choice(sorted(members)))
            roles = {m: both for m in members}
            prev = incremental.compute(adj, roles, prev)
            inc_cost = prev.shared_tree.cost(weights)
            fresh_cost = pruned_spt_steiner_tree(adj, members).cost(weights)
            if fresh_cost > 0:
                ratios.append(inc_cost / fresh_cost)
    return ratios


def test_incremental_vs_scratch_tree_cost(benchmark, results_dir):
    ratios = benchmark.pedantic(_incremental_cost_ratio, rounds=1, iterations=1)
    mean_ratio = statistics.mean(ratios)
    worst = max(ratios)
    text = (
        "Incremental (Imase-Waxman greedy, rebuild threshold 1.5) vs from-scratch\n"
        f"mean cost ratio = {mean_ratio:.3f}, worst = {worst:.3f}, "
        f"samples = {len(ratios)}"
    )
    write_result(results_dir, "incremental_vs_scratch.txt", text)
    print("\n" + text)
    # Section 3.5's promise: incremental trees stay near the heuristic's.
    assert worst <= 1.5 + 1e-9  # enforced by the rebuild policy
    assert mean_ratio < 1.3
