"""Tests for the protocol-guard ablation knobs (DESIGN.md §5).

The full quantitative study lives in ``benchmarks/bench_ablations.py``;
these tests pin the qualitative facts: every ablated variant still
converges and agrees (the guards are optimizations, not correctness
requirements), and each guard measurably reduces the overhead it targets.
"""

from __future__ import annotations

import random

import pytest

from repro.core import DgmcNetwork, JoinEvent, ProtocolConfig
from repro.core.invariants import verify_deployment
from repro.topo.generators import waxman_network


def run_burst(seed: int, **flags):
    rng = random.Random(seed)
    net = waxman_network(25, rng)
    dgmc = DgmcNetwork(
        net, ProtocolConfig(compute_time=1.0, per_hop_delay=0.05, **flags)
    )
    dgmc.register_symmetric(1)
    members = rng.sample(range(25), 8)
    for i, sw in enumerate(members):
        dgmc.inject(JoinEvent(sw, 1), at=1.0 + 0.8 * i)
    dgmc.run()
    verify_deployment(dgmc, 1, expect_members=frozenset(members))
    return dgmc


@pytest.mark.parametrize(
    "flags",
    [
        {"ablate_withdrawal": True},
        {"ablate_rc_gate": True},
        {"ablate_re_gate": True},
        {"ablate_withdrawal": True, "ablate_rc_gate": True, "ablate_re_gate": True},
    ],
)
def test_ablated_variants_still_converge(flags):
    for seed in (1, 2):
        run_burst(seed, **flags)  # verify_deployment raises on any violation


def test_withdrawal_reduces_floodings():
    totals = {True: 0, False: 0}
    for seed in range(4):
        for ablated in (False, True):
            dgmc = run_burst(seed, ablate_withdrawal=ablated)
            totals[ablated] += dgmc.mc_floodings()
    assert totals[True] >= totals[False]


def test_rc_gate_reduces_computations():
    totals = {True: 0, False: 0}
    for seed in range(4):
        for ablated in (False, True):
            dgmc = run_burst(seed, ablate_rc_gate=ablated)
            totals[ablated] += dgmc.total_computations()
    assert totals[True] >= totals[False]
