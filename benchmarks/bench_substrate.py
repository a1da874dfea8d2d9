"""Micro-benchmarks of the simulation substrate.

These establish that the kernel, flooding fabric and switch inboxes are fast
enough to carry the paper-scale experiments (100 switches, thousands of
LSAs) comfortably: the figure sweeps run in seconds, not minutes.
"""

from __future__ import annotations

import random

from repro.core import DgmcNetwork, JoinEvent, ProtocolConfig
from repro.core.lsa import McEvent, McLsa
from repro.core.mc import Role
from repro.core.timestamp import Stamp
from repro.lsr.flooding import FloodingFabric
from repro.sim.kernel import Simulator
from repro.topo.generators import waxman_network


def test_bench_kernel_event_dispatch(benchmark):
    def run():
        sim = Simulator()
        rng = random.Random(1)
        for i in range(10_000):
            sim.schedule(rng.random() * 100, lambda: None)
        sim.run()
        return sim.events_dispatched

    assert benchmark(run) == 10_000


def test_bench_flood_operation(benchmark):
    rng = random.Random(3)
    net = waxman_network(100, rng)
    sim = Simulator()
    fabric = FloodingFabric(sim, net, per_hop_delay=0.01)
    sink = []
    for x in net.switches():
        fabric.register(x, lambda s, p: sink.append(s))

    def run():
        fabric.flood(0, "payload")
        sim.run()
        return fabric.total_floods

    benchmark(run)
    assert sink  # deliveries happened


def test_bench_flood_400_switches_delivered_and_drained(benchmark):
    """One MC flood at the e2e benchmark's n=400, through the protocol's
    door: each copy lands in a switch's inbox and one ReceiveLSA() wake
    drains it.  The LSA is a stale copy of the join, so nobody answers."""
    dgmc = DgmcNetwork(
        waxman_network(400, random.Random(3)), ProtocolConfig(per_hop_delay=0.01)
    )
    dgmc.register_symmetric(1)
    dgmc.inject(JoinEvent(0, 1), at=0.0)
    dgmc.run()
    stale = McLsa(0, McEvent.JOIN, 1, None, Stamp.from_dense((1,)), role=Role.BOTH)

    def run():
        before = dgmc.fabric.delivery_count
        dgmc.fabric.flood(0, stale, kind="mc")
        dgmc.run()
        assert dgmc.quiescent()  # every inbox drained
        return dgmc.fabric.delivery_count - before

    assert benchmark(run) == 399
    assert len(dgmc.computation_log) == 1  # the join's own; the stale copies cost none


def test_bench_hundred_switch_sparse_trial(benchmark):
    """End-to-end: one sparse D-GMC trial on 100 switches."""
    from repro.harness.experiment import run_trial
    from repro.harness.figures import _sparse_scenario
    from repro.sim.rng import RngRegistry

    reg = RngRegistry(9).fork("bench")
    scenario = _sparse_scenario(100, 0, reg)

    metrics = benchmark.pedantic(
        lambda: run_trial(scenario), rounds=1, iterations=1
    )
    assert metrics.agreed
    assert metrics.computations_per_event < 1.5
