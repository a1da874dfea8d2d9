#!/usr/bin/env python3
"""Replicated file service: receiver-only MCs, D-GMC vs CBT.

"Members of this type of MC constitute the receivers of one or more
communication sessions" -- here, the replicas of a file service that all
receive update streams.  The paper contrasts its approach with CBT
(Section 5): CBT builds the shared tree from unicast paths to a *core*
switch, and "the selection of a good core node may be impossible" without
topology knowledge, while "the D-GMC protocol does not incur this
problem" because every switch computes on the full network image.

This example builds the same replica group three ways and compares tree
cost (total link delay):

* D-GMC with its default Steiner heuristic,
* CBT with a member-aware core (best case for CBT),
* CBT over every possible core (the spread a blind choice lands in).

A CBT tree is the union of the unicast paths from the members to the core
(one JOIN-REQUEST per tree edge), so :func:`repro.trees.cbt.core_based_tree`
computes it directly.

Run:  python examples/receiver_only_service.py
"""

from __future__ import annotations

import random

from repro import DgmcNetwork, JoinEvent, ProtocolConfig
from repro.lsr import spf
from repro.trees.base import edge_weights
from repro.trees.cbt import core_based_tree, select_core
from repro.topo import waxman_network

GROUP = 5


def main(seed: int = 23) -> None:
    rng = random.Random(seed)
    net = waxman_network(60, rng)
    replicas = sorted(rng.sample(range(net.n), 7))
    adj = spf.network_adjacency(net)
    weights = edge_weights(adj)
    print(f"network: {net.n} switches; replica switches: {replicas}\n")

    # -- D-GMC receiver-only MC ---------------------------------------------
    dgmc = DgmcNetwork(net.copy(), ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
    dgmc.register_receiver_only(GROUP)
    for i, sw in enumerate(replicas):
        dgmc.inject(JoinEvent(sw, GROUP), at=50.0 * (i + 1))
    dgmc.run()
    ok, detail = dgmc.agreement(GROUP)
    assert ok, detail
    dgmc_tree = dgmc.states_for(GROUP)[0].installed.shared_tree
    dgmc_tree.validate(replicas)
    dgmc_cost = dgmc_tree.cost(weights)
    print(f"D-GMC Steiner tree:        cost={dgmc_cost:7.3f}, "
          f"{len(dgmc_tree.edges)} edges, "
          f"{dgmc.total_computations()} computations for {len(replicas)} joins")

    # -- CBT with a member-aware core (needs global knowledge!) ----------------
    good_core = select_core(adj, replicas, strategy="member-median")
    good_tree = core_based_tree(adj, replicas, good_core)
    good_cost = good_tree.cost(weights)
    print(f"CBT, member-median core {good_core:>2}: cost={good_cost:7.3f}, "
          f"{len(good_tree.edges)} edges, "
          f"{len(good_tree.edges)} unicast control messages")

    # -- CBT core sensitivity: what does a blind core choice cost? -------------
    # A blind operator picks some switch without knowing the topology
    # ("many networks [...] do not typically reveal their internal
    # topologies"); sweep every possible core to see the spread.
    costs = sorted(
        core_based_tree(adj, replicas, core).cost(weights)
        for core in range(net.n)
    )
    mean_cost = sum(costs) / len(costs)
    print(f"CBT over all {net.n} cores:   cost best={costs[0]:7.3f}, "
          f"mean={mean_cost:7.3f}, worst={costs[-1]:7.3f}")

    print(
        f"\ncore sensitivity: a blind core choice costs {mean_cost / costs[0]:.2f}x "
        f"the best core on average\n"
        f"and {costs[-1] / costs[0]:.2f}x in the worst case; D-GMC needs no core "
        f"at all, and its Steiner tree\n"
        f"costs {dgmc_cost / costs[0]:.2f}x the best possible core-based tree."
    )


if __name__ == "__main__":
    main()
