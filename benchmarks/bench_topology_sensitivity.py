"""Topology-family sensitivity: the results do not hinge on Waxman graphs.

The paper does not name its random-graph generator (we default to Waxman;
see DESIGN.md substitutions).  This benchmark reruns the sparse-workload
experiment across four topology families and checks the headline result --
~1 computation and flooding per event -- is a property of the protocol,
not of the graph model.
"""

from __future__ import annotations

import statistics

from conftest import write_result

from repro.harness.experiment import run_trial
from repro.harness.figures import EXP1_COMPUTE, EXP1_PER_HOP, _initial_members
from repro.sim.rng import RngRegistry
from repro.topo.generators import (
    clustered_network,
    grid_network,
    random_connected_network,
    waxman_network,
)
from repro.workloads.membership import sparse_schedule
from repro.workloads.scenario import Scenario

SEEDS = range(4)


def _families(registry: RngRegistry):
    rng = registry.stream("topology")
    return {
        "waxman": waxman_network(48, rng),
        "flat-random": random_connected_network(48, rng),
        "grid": grid_network(6, 8),
        "clustered": clustered_network(4, 12, rng),
    }


def _scenario(net, registry: RngRegistry) -> Scenario:
    tf = net.flooding_diameter(per_hop_delay=EXP1_PER_HOP)
    schedule = sparse_schedule(
        net.n,
        registry.stream("events"),
        count=15,
        mean_gap=20.0 * (tf + EXP1_COMPUTE),
        initial_members=_initial_members(net.n, registry),
    )
    return Scenario(
        net=net,
        schedule=schedule,
        compute_time=EXP1_COMPUTE,
        per_hop_delay=EXP1_PER_HOP,
    )


def _study():
    per_family = {}
    for seed in SEEDS:
        registry = RngRegistry(seed).fork("topo-sensitivity")
        for name, net in _families(registry).items():
            metrics = run_trial(_scenario(net, registry.fork(name)))
            per_family.setdefault(name, []).append(metrics)
    return per_family


def test_topology_sensitivity(benchmark, results_dir):
    per_family = benchmark.pedantic(_study, rounds=1, iterations=1)
    lines = [
        f"Sparse-workload overhead by topology family (mean over {len(SEEDS)} seeds)",
        "=" * 66,
        f"{'family':>12} | {'comp/event':>10} | {'flood/event':>11} | agreed",
        "-" * 48,
    ]
    for name, trials in per_family.items():
        comp = statistics.mean(t.computations_per_event for t in trials)
        flood = statistics.mean(t.floodings_per_event for t in trials)
        agreed = all(t.agreed for t in trials)
        lines.append(
            f"{name:>12} | {comp:>10.3f} | {flood:>11.3f} "
            f"| {'yes' if agreed else 'NO'}"
        )
    text = "\n".join(lines)
    write_result(results_dir, "topology_sensitivity.txt", text)
    print("\n" + text)

    for name, trials in per_family.items():
        assert all(t.agreed for t in trials), name
        comp = statistics.mean(t.computations_per_event for t in trials)
        flood = statistics.mean(t.floodings_per_event for t in trials)
        assert comp <= 1.3, f"{name}: {comp}"
        assert flood <= 1.3, f"{name}: {flood}"
