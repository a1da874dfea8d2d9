"""Property-based protocol tests: random workloads never break the invariants.

Hypothesis drives the D-GMC deployment through arbitrary feasible event
schedules (random networks, random join/leave mixes, random burstiness)
and asserts the DESIGN.md invariants at quiescence: global agreement,
valid spanning topology, correct final member list, and LSA accounting.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core import (
    DgmcNetwork,
    JoinEvent,
    LeaveEvent,
    ProtocolConfig,
)
from repro.topo.generators import waxman_network


@st.composite
def workloads(draw):
    """A random network plus a feasible random event schedule."""
    n = draw(st.integers(5, 25))
    topo_seed = draw(st.integers(0, 10_000))
    event_count = draw(st.integers(1, 12))
    # spacing regime: bursty (sub-round gaps) or sparse
    gap_scale = draw(st.sampled_from([0.1, 1.0, 50.0]))
    seq_seed = draw(st.integers(0, 10_000))
    return n, topo_seed, event_count, gap_scale, seq_seed


@given(workloads())
@settings(max_examples=40, deadline=None)
def test_random_workloads_preserve_invariants(workload):
    n, topo_seed, event_count, gap_scale, seq_seed = workload
    rng = random.Random(topo_seed)
    net = waxman_network(n, rng)
    dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
    dgmc.register_symmetric(1)

    ev_rng = random.Random(seq_seed)
    t = 1.0
    members: set[int] = set()
    injected = 0
    for _ in range(event_count):
        absent = [x for x in range(n) if x not in members]
        if absent and (not members or ev_rng.random() < 0.6):
            sw = ev_rng.choice(absent)
            dgmc.inject(JoinEvent(sw, 1), at=t)
            members.add(sw)
        else:
            sw = ev_rng.choice(sorted(members))
            dgmc.inject(LeaveEvent(sw, 1), at=t)
            members.remove(sw)
        injected += 1
        t += ev_rng.expovariate(1.0) * gap_scale

    dgmc.run()

    # Quiescence and agreement (invariant 2).
    assert dgmc.quiescent()
    ok, detail = dgmc.agreement(1)
    assert ok, detail

    states = dgmc.states_for(1)
    if members:
        # Correct final member list everywhere.
        assert states, "live connection lost all state"
        any_state = states[min(states)]
        assert any_state.member_set == frozenset(members)
        # Valid topology spanning the members (invariant 3).
        tree = any_state.installed.shared_tree
        tree.validate(members)
        up_edges = {link.key for link in net.links()}
        assert tree.edges <= up_edges
    else:
        # Empty connection: destroyed at every switch (invariant 5).
        assert not states

    # LSA accounting (invariant 4): exactly one event LSA per event, and
    # at least as many computations as... none required (deferrals), but
    # floodings >= events always (every event floods an LSA).
    event_lsas = sum(sw.event_lsas_flooded for sw in dgmc.switches.values())
    assert event_lsas == injected
    assert dgmc.mc_floodings() >= injected


@given(st.integers(0, 10_000), st.sampled_from([0.0, 0.01, 0.3]))
@settings(max_examples=20, deadline=None)
def test_simultaneous_event_storms_agree(seed, jitter):
    """All events land at (nearly) the same instant: worst-case conflicts."""
    rng = random.Random(seed)
    n = 15
    net = waxman_network(n, rng)
    dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=1.0, per_hop_delay=0.1))
    dgmc.register_symmetric(1)
    joiners = rng.sample(range(n), 6)
    for i, sw in enumerate(joiners):
        dgmc.inject(JoinEvent(sw, 1), at=1.0 + i * jitter)
    dgmc.run()
    ok, detail = dgmc.agreement(1)
    assert ok, detail
    state = dgmc.states_for(1)[0]
    assert state.member_set == frozenset(joiners)
    state.installed.shared_tree.validate(joiners)


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_timestamp_monotonicity_at_quiescence(seed):
    """At quiescence R == E everywhere and C is dominated by R (invariant 1)."""
    rng = random.Random(seed)
    net = waxman_network(12, rng)
    dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
    dgmc.register_symmetric(1)
    for i, sw in enumerate(rng.sample(range(12), 5)):
        dgmc.inject(JoinEvent(sw, 1), at=1.0 + i * 0.2)
    dgmc.run()
    for state in dgmc.states_for(1).values():
        assert state.received.geq(state.expected)
        assert state.expected.geq(state.received)
        assert state.received.geq(state.current_stamp)
