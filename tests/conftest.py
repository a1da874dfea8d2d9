"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.obs.metrics import REGISTRY
from repro.sim.kernel import Simulator
from repro.topo.generators import grid_network, waxman_network


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def registry_delta():
    """``registry_delta()`` returns the process-wide registry's sample
    deltas since the previous call (or since the test began) -- how a
    test pins a count without reading the counter's owner."""
    mark = [REGISTRY.snapshot()]

    def delta():
        out = REGISTRY.delta(mark[0])
        mark[0] = REGISTRY.snapshot()
        return out

    return delta


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xD61C)


@pytest.fixture
def small_waxman(rng):
    """A 20-switch connected Waxman graph (deterministic)."""
    return waxman_network(20, rng)


@pytest.fixture
def grid4x4():
    """A 4x4 grid with unit delays (easy to reason about by hand)."""
    return grid_network(4, 4)
