"""Tests for generator-based processes: Hold, lifecycle, helper generators."""

from __future__ import annotations

import pytest

from repro.sim.kernel import Hold, SimulationError


class TestHold:
    def test_hold_advances_time(self, sim):
        times = []

        def body():
            yield Hold(2.0)
            times.append(sim.now)
            yield Hold(3.0)
            times.append(sim.now)

        sim.spawn(body())
        sim.run()
        assert times == [2.0, 5.0]

    def test_zero_hold_is_allowed(self, sim):
        finished = []

        def body():
            yield Hold(0.0)
            finished.append(sim.now)

        sim.spawn(body())
        sim.run()
        assert finished == [0.0]

    def test_negative_hold_rejected(self):
        with pytest.raises(SimulationError):
            Hold(-1.0)

    def test_two_processes_interleave(self, sim):
        trace = []

        def worker(name, step):
            for _ in range(3):
                yield Hold(step)
                trace.append((sim.now, name))

        sim.spawn(worker("fast", 1.0))
        sim.spawn(worker("slow", 2.5))
        sim.run()
        assert trace == [
            (1.0, "fast"),
            (2.0, "fast"),
            (2.5, "slow"),
            (3.0, "fast"),
            (5.0, "slow"),
            (7.5, "slow"),
        ]


class TestLifecycle:
    def test_process_starts_at_spawn_time(self, sim):
        started = []

        def body():
            started.append(sim.now)
            yield Hold(1.0)

        sim.schedule(4.0, lambda: sim.spawn(body()))
        sim.run()
        assert started == [4.0]

    def test_first_step_is_a_heap_entry_not_an_inline_call(self, sim):
        """spawn() never runs the body inline: the caller finishes first."""
        trace = []

        def body():
            trace.append("body")
            yield Hold(0.0)

        def spawner():
            sim.spawn(body())
            trace.append("spawner done")

        sim.schedule(0.0, spawner)
        sim.run()
        assert trace == ["spawner done", "body"]

    def test_yielding_garbage_raises(self, sim):
        def body():
            yield 42

        sim.spawn(body())
        with pytest.raises(SimulationError, match="unsupported"):
            sim.run()

    def test_yielding_a_generator_raises(self, sim):
        """Helpers compose with ``yield from``; a bare generator is no command."""

        def inner():
            yield Hold(1.0)

        def body():
            yield inner()

        sim.spawn(body())
        with pytest.raises(SimulationError, match="unsupported"):
            sim.run()

    def test_exception_in_body_propagates_out_of_run(self, sim):
        class Boom(Exception):
            pass

        def body():
            yield Hold(1.0)
            raise Boom

        sim.spawn(body())
        with pytest.raises(Boom):
            sim.run()
        assert sim.now == 1.0

    def test_body_may_be_any_object_with_send(self, sim):
        """The e2e tracer wraps a body generator in a timing proxy."""
        sent = []

        class Proxy:
            def __init__(self, gen):
                self._gen = gen

            def send(self, value):
                sent.append(value)
                return self._gen.send(value)

        times = []

        def body():
            yield Hold(2.0)
            times.append(sim.now)

        sim.spawn(Proxy(body()))
        sim.run()
        assert times == [2.0]
        assert sent == [None, None]


class TestSubroutines:
    def test_nested_subroutines(self, sim):
        results = []

        def level3():
            yield Hold(1.0)
            return 3

        def level2():
            v = yield from level3()
            yield Hold(1.0)
            return v + 10

        def level1():
            v = yield from level2()
            results.append(v + 100)

        sim.spawn(level1())
        sim.run()
        assert results == [113]
        assert sim.now == 2.0

    def test_subroutine_loop(self, sim):
        results = []

        def step():
            yield Hold(1.0)
            return 1

        def body():
            total = 0
            for _ in range(4):
                total += yield from step()
            results.append(total)

        sim.spawn(body())
        sim.run()
        assert results == [4]
        assert sim.now == 4.0
