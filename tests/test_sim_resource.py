"""Tests for the single-server facility: serialization, FIFO hand-over."""

from __future__ import annotations

import pytest

from repro.sim.kernel import Facility, Hold, SimulationError


def worker(sim, facility, trace, name, service):
    yield facility.request()
    trace.append(("start", name, sim.now))
    yield Hold(service)
    facility.release()
    trace.append(("end", name, sim.now))


class TestSingleServer:
    def test_serialization(self, sim):
        fac = Facility(sim)
        trace = []
        for name in ("a", "b", "c"):
            sim.spawn(worker(sim, fac, trace, name, 2.0))
        sim.run()
        starts = [t for kind, _, t in trace if kind == "start"]
        assert starts == [0.0, 2.0, 4.0]

    def test_fifo_order(self, sim):
        fac = Facility(sim)
        trace = []

        def late_spawner():
            yield Hold(0.5)
            sim.spawn(worker(sim, fac, trace, "late", 1.0))

        sim.spawn(worker(sim, fac, trace, "first", 2.0))
        sim.spawn(worker(sim, fac, trace, "second", 1.0))
        sim.spawn(late_spawner())
        sim.run()
        order = [n for kind, n, _ in trace if kind == "start"]
        assert order == ["first", "second", "late"]

    def test_busy_flag(self, sim):
        fac = Facility(sim)
        trace = []
        sim.spawn(worker(sim, fac, trace, "a", 5.0))
        sim.spawn(worker(sim, fac, trace, "b", 5.0))
        sim.run(until=1.0)
        assert fac.busy
        sim.run(until=6.0)  # handed over to "b" without going idle
        assert fac.busy
        sim.run()
        assert not fac.busy

    def test_grant_is_a_heap_entry_not_an_inline_call(self, sim):
        """release() never resumes the next holder inline."""
        fac = Facility(sim)
        trace = []

        def holder():
            yield fac.request()
            yield Hold(1.0)
            fac.release()
            trace.append("released")

        def waiter():
            yield fac.request()
            trace.append("granted")
            fac.release()

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        assert trace == ["released", "granted"]


class TestRelease:
    def test_release_idle_raises(self, sim):
        fac = Facility(sim)
        with pytest.raises(SimulationError):
            fac.release()
