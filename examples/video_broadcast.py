#!/usr/bin/env python3
"""Video broadcast: an asymmetric MC, and what MOSPF would have paid.

"Typical applications of asymmetric MCs include video broadcasting and
remote teaching."  One switch is the video source (SENDER role); viewers
join and leave as receivers.  D-GMC maintains the source-rooted tree with
one computation per membership event; MOSPF -- the Internet protocol built
for exactly this workload -- pays a computation at *every on-tree router*
after each membership change, because its routing caches are flushed and
rebuilt on the next video packet.

Run:  python examples/video_broadcast.py
"""

from __future__ import annotations

import random

from repro import DgmcNetwork, JoinEvent, LeaveEvent, ProtocolConfig, Role
from repro.baselines import MospfNetwork
from repro.topo import waxman_network

CHANNEL = 9


def run_dgmc(net, source, viewers, leave_after):
    dgmc = DgmcNetwork(net.copy(), ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
    dgmc.register_asymmetric(CHANNEL)
    dgmc.inject(JoinEvent(source, CHANNEL, role=Role.SENDER), at=1.0)
    t = 100.0
    for v in viewers:
        dgmc.inject(JoinEvent(v, CHANNEL, role=Role.RECEIVER), at=t)
        t += 100.0
    for v in leave_after:
        dgmc.inject(LeaveEvent(v, CHANNEL), at=t)
        t += 100.0
    dgmc.run()
    ok, detail = dgmc.agreement(CHANNEL)
    assert ok, detail
    state = dgmc.states_for(CHANNEL)[0]
    tree = state.installed.tree_map()[source]
    return dgmc, tree


def run_mospf(net, source, viewers, leave_after):
    mo = MospfNetwork(net.copy(), compute_time=0.5, per_hop_delay=0.05)
    t = 1.0
    events = [(v, True) for v in viewers] + [(v, False) for v in leave_after]
    for v, join in events:
        mo.inject((JoinEvent if join else LeaveEvent)(v, CHANNEL), at=t)
        # the video stream keeps flowing: one packet after each event
        mo.send_datagram(source, CHANNEL, at=t + 50.0)
        t += 100.0
    mo.run()
    return mo


def main(seed: int = 11) -> None:
    rng = random.Random(seed)
    net = waxman_network(50, rng)
    source = rng.randrange(net.n)
    viewers = rng.sample(sorted(set(range(net.n)) - {source}), 10)
    leave_after = viewers[:3]
    events = 1 + len(viewers) + len(leave_after)  # sender join + viewer churn

    print(f"network: {net.n} switches; source switch {source}; "
          f"{len(viewers)} viewers, {len(leave_after)} later leave\n")

    dgmc, tree = run_dgmc(net, source, viewers, leave_after)
    remaining = set(viewers) - set(leave_after)
    tree.validate(remaining | {source})
    print("D-GMC (asymmetric MC, source-rooted tree):")
    print(f"  final tree: root={tree.root}, {len(tree.edges)} edges")
    print(f"  events={dgmc.mc_event_count}, "
          f"computations={dgmc.total_computations()} "
          f"({dgmc.total_computations() / dgmc.mc_event_count:.2f}/event), "
          f"floodings={dgmc.mc_floodings()}")

    mo = run_mospf(net, source, viewers, leave_after)
    print("\nMOSPF (data-driven source-rooted trees):")
    print(f"  events={mo.events_injected}, "
          f"computations={mo.total_computations()} "
          f"({mo.total_computations() / mo.events_injected:.2f}/event), "
          f"membership floodings={mo.mc_floodings()}, "
          f"datagrams delivered={mo.datagrams_delivered}")

    ratio = mo.total_computations() / max(dgmc.total_computations(), 1)
    print(f"\nMOSPF performed {ratio:.1f}x the topology computations of D-GMC "
          "for the same broadcast.")


if __name__ == "__main__":
    main()
