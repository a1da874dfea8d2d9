"""Micro-benchmarks of the simulation substrate.

These establish that the kernel, mailboxes, and flooding fabric are fast
enough to carry the paper-scale experiments (100 switches, thousands of
LSAs) comfortably: the figure sweeps run in seconds, not minutes.
"""

from __future__ import annotations

import random

import pytest

from repro.lsr.flooding import FloodingFabric
from repro.sim.kernel import Mailbox, Receive, Simulator
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


def test_bench_process_context_switches(benchmark):
    def run():
        sim = Simulator()
        count = 0

        def ping(box_in, box_out, rounds):
            nonlocal count
            for _ in range(rounds):
                yield Receive(box_in)
                count += 1
                box_out.send("m")

        a = Mailbox(sim)
        b = Mailbox(sim)
        sim.spawn(ping(a, b, 1000))
        sim.spawn(ping(b, a, 1000))
        a.send("go")
        sim.run()
        return count

    assert benchmark(run) == 2000


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
    """One flood at the e2e benchmark's n=400, up to the protocol's door:
    each copy lands in a mailbox whose parked daemon wakes and drains it."""
    net = waxman_network(400, random.Random(3))
    sim = Simulator()
    fabric = FloodingFabric(sim, net, per_hop_delay=0.01)
    drained = []

    def daemon(box):
        while True:
            drained.append((yield Receive(box)))
            while not box.empty:
                drained.append(box.try_receive()[1])

    for x in net.switches():
        box = Mailbox(sim)
        sim.spawn(daemon(box))
        fabric.register(x, lambda s, p, box=box: box.send(p))
    sim.run()  # every daemon parked

    def run():
        del drained[:]
        fabric.flood(0, "payload")
        sim.run()
        return len(drained)

    assert benchmark(run) == 399


def test_bench_zero_delay_wakes(benchmark):
    """2 000 parked receivers woken at one instant (no wake touches the heap)."""

    def setup():
        sim = Simulator()
        boxes = [Mailbox(sim) for _ in range(2000)]
        woken = []

        def daemon(box):
            while True:
                woken.append((yield Receive(box)))

        for box in boxes:
            sim.spawn(daemon(box))
        sim.run()
        return (sim, boxes, woken), {}

    def run(sim, boxes, woken):
        for box in boxes:
            box.send("m")
        sim.run()
        assert len(woken) == 2000

    benchmark.pedantic(run, setup=setup, rounds=50)


def test_bench_hundred_switch_sparse_trial(benchmark):
    """End-to-end: one sparse D-GMC trial on 100 switches."""
    from repro.harness.experiment import run_dgmc_trial
    from repro.harness.figures import _sparse_scenario
    from repro.sim.rng import RngRegistry

    reg = RngRegistry(9).fork("bench")
    scenario = _sparse_scenario(100, 0, reg)

    metrics = benchmark.pedantic(
        lambda: run_dgmc_trial(scenario), rounds=1, iterations=1
    )
    assert metrics.agreed
    assert metrics.computations_per_event < 1.5
